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
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import NotPositiveDefinite

_PENALTY = 1e25


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
    # bounds for log-parameters, applied by name matching
    log_lengthscale_bounds: tuple = (np.log(1e-3), np.log(1e3))
    log_variance_bounds: tuple = (-20.0, 20.0)
    # L-BFGS memory; the problems here are small enough to afford plenty
    history_size: int = 50
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

    def summary(self):
        flag = "converged" if self.converged else "stopped"
        return (
            f"{flag} after {self.n_iter} iterations, bound {self.final_elbo:.6f} "
            f"({self.wall_time:.2f}s)"
        )


class _Converged(Exception):
    pass


@dataclass
class _Tracker:
    trace: list = field(default_factory=list)
    best_f: float = -np.inf
    best_x: np.ndarray = None
    last_x: np.ndarray = None
    last_f: float = None
    failures: int = 0


@dataclass
class MaximizeOutcome:
    x: np.ndarray
    f: float
    trace: list
    converged: bool
    max_iter_reached: bool
    n_iter: int
    message: str
    failures: int


def maximize(value_and_grad, x0, bounds, config, trace_offset=()):
    """Run bounded L-BFGS on ``-value_and_grad`` and return the best
    iterate found as a MaximizeOutcome.

    ``value_and_grad(x)`` returns the bound and its gradient; raising
    NotPositiveDefinite (or producing non-finite values) is treated as a
    soft failure worth a penalty, not an abort.
    """
    tracker = _Tracker(trace=list(trace_offset))
    x0 = np.asarray(x0, dtype=float)

    def penalty():
        # proportional to the best value seen: an absurdly large constant
        # makes the line-search interpolation collapse to a zero step and
        # the whole run stall at the pre-failure iterate
        if np.isfinite(tracker.best_f):
            return 1e3 * (abs(tracker.best_f) + 1.0)
        return _PENALTY

    def objective(x):
        try:
            f, g = value_and_grad(x)
        except NotPositiveDefinite:
            tracker.failures += 1
            return penalty(), np.zeros_like(x)
        if not np.isfinite(f) or not np.all(np.isfinite(g)):
            tracker.failures += 1
            return penalty(), np.zeros_like(x)
        if f > tracker.best_f:
            tracker.best_f = f
            tracker.best_x = x.copy()
        tracker.last_x = x.copy()
        tracker.last_f = f
        return -f, -g

    def callback(xk):
        if tracker.last_x is not None and np.array_equal(xk, tracker.last_x):
            fk = tracker.last_f
        else:
            fk = value_and_grad(xk)[0]
        tracker.trace.append(fk)
        w = config.tol_window
        t = tracker.trace
        if len(t) > w:
            if abs(t[-1] - t[-1 - w]) <= config.rel_tol * (abs(t[-1 - w]) + 1.0):
                raise _Converged

    max_iter = config.max_iter
    converged = False
    message = ""
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
                "maxcor": config.history_size,
                "ftol": config.ftol,
                "gtol": config.gtol,
            },
        )
        message = str(res.message)
        # scipy's own convergence (tiny relative reduction) counts too
        converged = bool(res.success)
        max_iter_reached = res.status == 1
    except _Converged:
        converged = True
        max_iter_reached = False
        message = f"relative change below {config.rel_tol:g} over {config.tol_window} steps"

    n_iter = len(tracker.trace) - len(trace_offset)
    if tracker.best_x is None:
        # every evaluation failed; return the start point unchanged
        tracker.best_x = x0
        tracker.best_f = -np.inf
        converged = False
        message = "no successful evaluation"
        max_iter_reached = False
    return MaximizeOutcome(
        x=tracker.best_x,
        f=tracker.best_f,
        trace=tracker.trace,
        converged=converged,
        max_iter_reached=max_iter_reached,
        n_iter=n_iter,
        message=message,
        failures=tracker.failures,
    )


def bounds_for_names(names, config):
    """Box bounds for a list of parameter names: lengthscales and variances
    get the configured log-space boxes, everything else is free."""
    out = []
    for name in names:
        if "lengthscale" in name:
            out.append(config.log_lengthscale_bounds)
        elif "variance" in name:
            out.append(config.log_variance_bounds)
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
    cfg1 = (
        config
        if config.phase1_max_iter is None
        else _with_max_iter(config, config.phase1_max_iter)
    )
    out = maximize(fun, x0, bnds, cfg1)
    setter(out.x)
    total_iter = out.n_iter

    if config.train_hypers:
        fun, x0, bnds, setter = make_objective(True)
        if len(x0) > n_variational:  # model actually has hyperparameters
            out = maximize(fun, x0, bnds, config, trace_offset=out.trace)
            setter(out.x)
            total_iter += out.n_iter

    return TrainResult(
        elbo_trace=np.asarray(out.trace, dtype=float),
        final_elbo=float(out.f),
        converged=out.converged,
        max_iter_reached=out.max_iter_reached,
        n_iter=total_iter,
        message=out.message,
        wall_time=time.perf_counter() - t0,
    )


def _with_max_iter(config, max_iter):
    import copy

    cfg = copy.copy(config)
    cfg.max_iter = max_iter
    return cfg
