"""Bound maximization driver shared by the dense and sparse models.

Wraps scipy's L-BFGS-B with the conventions the models need: we maximize,
so the objective is negated; evaluations that blow up numerically
(indefinite kernel matrices, overflow) get a large finite penalty instead
of crashing the line search; the best finite iterate is tracked
explicitly; and a relative-change window on the recorded trace declares
convergence independently of scipy's own stopping tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from .errors import NotPositiveDefinite

_PENALTY = 1e25
# L-BFGS memory; the problems here are small enough to afford plenty
HISTORY_SIZE = 50
# boxes for log-parameters, applied by name matching
LOG_LENGTHSCALE_BOUNDS = (np.log(1e-3), np.log(1e3))
LOG_VARIANCE_BOUNDS = (-20.0, 20.0)


@dataclass
class TrainConfig:
    """Knobs for two-phase training.

    Phase 1 optimizes the variational parameters at fixed hyperparameters;
    phase 2 (when ``train_hypers``) continues jointly. Convergence is
    declared when the bound improves by less than ``rel_tol`` (relative)
    over ``tol_window`` consecutive accepted steps.
    """

    max_iter: int = 2000
    phase1_max_iter: int = None
    train_hypers: bool = True
    rel_tol: float = 1e-9
    tol_window: int = 5
    seed: int = 0
    multi_start: int = 0
    # inner L-BFGS stopping tests (relative objective reduction and
    # projected-gradient norm); drop these to squeeze out the flat
    # directions when near-exact optima are required
    ftol: float = 1e-14
    gtol: float = 1e-10


@dataclass
class TrainResult:
    """Outcome of a training run."""

    elbo_trace: np.ndarray
    final_elbo: float
    converged: bool
    max_iter_reached: bool
    n_iter: int
    message: str
    wall_time: float
    clamp_count: int = 0
    # evaluations that failed softly (penalised), over all phases
    failures: int = 0

    def summary(self):
        flag = "converged" if self.converged else "stopped"
        return (
            f"{flag} after {self.n_iter} iterations, bound {self.final_elbo:.6f} "
            f"({self.wall_time:.2f}s)"
        )


class _Converged(Exception):
    pass


@dataclass
class MaximizeOutcome:
    """The best iterate (``x``, ``f``), the trace of accepted steps, how the
    run stopped, and the last point evaluated."""

    trace: list = field(default_factory=list)
    f: float = -np.inf
    x: np.ndarray = None
    last_x: np.ndarray = None
    last_f: float = None
    failures: int = 0
    converged: bool = False
    max_iter_reached: bool = False
    n_iter: int = 0
    message: str = ""


def maximize(value_and_grad, x0, bounds, config, trace_offset=()):
    """Run bounded L-BFGS on ``-value_and_grad`` and return the best
    iterate found as a MaximizeOutcome.

    ``value_and_grad(x)`` returns the bound and its gradient; raising
    NotPositiveDefinite (or producing non-finite values) is treated as a
    soft failure worth a penalty, not an abort. It runs with numpy's
    floating-point warnings off: a failed evaluation is counted, not printed.
    """
    out = MaximizeOutcome(trace=list(trace_offset))
    x0 = np.asarray(x0, dtype=float)

    def penalty():
        # proportional to the best value seen: an absurdly large constant
        # makes the line-search interpolation collapse to a zero step and
        # the whole run stall at the pre-failure iterate
        if np.isfinite(out.f):
            return 1e3 * (abs(out.f) + 1.0)
        return _PENALTY

    def evaluate(x):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return value_and_grad(x)

    def objective(x):
        try:
            f, g = evaluate(x)
        except NotPositiveDefinite:
            out.failures += 1
            return penalty(), np.zeros_like(x)
        if not np.isfinite(f) or not np.all(np.isfinite(g)):
            out.failures += 1
            return penalty(), np.zeros_like(x)
        if f > out.f:
            out.f = f
            out.x = x.copy()
        out.last_x = x.copy()
        out.last_f = f
        return -f, -g

    def callback(xk):
        if out.last_x is not None and np.array_equal(xk, out.last_x):
            fk = out.last_f
        else:
            fk = evaluate(xk)[0]
        out.trace.append(fk)
        w = config.tol_window
        t = out.trace
        if len(t) > w:
            if abs(t[-1] - t[-1 - w]) <= config.rel_tol * (abs(t[-1 - w]) + 1.0):
                raise _Converged

    max_iter = config.max_iter
    try:
        res = minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            callback=callback,
            options={
                "maxiter": max_iter,
                "maxfun": max(15000, 2 * max_iter),
                "maxcor": HISTORY_SIZE,
                "ftol": config.ftol,
                "gtol": config.gtol,
            },
        )
        out.message = str(res.message)
        # scipy's own convergence (tiny relative reduction) counts too
        out.converged = bool(res.success)
        out.max_iter_reached = res.status == 1
    except _Converged:
        out.converged = True
        out.message = f"relative change below {config.rel_tol:g} over {config.tol_window} steps"

    out.n_iter = len(out.trace) - len(trace_offset)
    if out.x is None:
        # every evaluation failed; return the start point unchanged
        out.x, out.converged, out.max_iter_reached = x0, False, False
        out.message = "no successful evaluation"
    return out


def bounds_for_names(names):
    """Box bounds for a list of parameter names: lengthscales and variances
    get the log-space boxes above, everything else is free."""
    out = []
    for name in names:
        if "lengthscale" in name:
            out.append(LOG_LENGTHSCALE_BOUNDS)
        elif "variance" in name:
            out.append(LOG_VARIANCE_BOUNDS)
        else:
            out.append((None, None))
    return out


def run_two_phase(make_objective, config):
    """Shared two-phase trainer.

    ``make_objective(train_hypers)`` returns ``(fun, x0, bounds, setter)``
    where ``setter(x)`` writes the parameters back into the model. Returns
    a TrainResult; the model is left at the best iterate found.
    """
    t0 = time.perf_counter()

    fun, x0, bnds, setter = make_objective(False)
    n_variational = len(x0)
    p1 = config.max_iter if config.phase1_max_iter is None else config.phase1_max_iter
    out = maximize(fun, x0, bnds, replace(config, max_iter=p1))
    setter(out.x)
    total_iter = out.n_iter
    failures = out.failures

    if config.train_hypers:
        fun, x0, bnds, setter = make_objective(True)
        if len(x0) > n_variational:  # model actually has hyperparameters
            out = maximize(fun, x0, bnds, config, trace_offset=out.trace)
            setter(out.x)
            total_iter += out.n_iter
            failures += out.failures

    return TrainResult(
        elbo_trace=np.asarray(out.trace, dtype=float),
        final_elbo=float(out.f),
        converged=out.converged,
        max_iter_reached=out.max_iter_reached,
        n_iter=total_iter,
        message=out.message,
        wall_time=time.perf_counter() - t0,
        failures=failures,
    )

