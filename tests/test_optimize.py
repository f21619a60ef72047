"""Bound-maximization driver on problems with known optima.

The driver wraps L-BFGS-B, so the tests use smooth concave objectives
where the maximizer is available in closed form, plus deliberately
broken objectives to exercise the penalty and all-failed paths.
"""

import numpy as np
import pytest

from scipy.optimize import minimize

from addgp import (
    ComponentSpec, Constant, Dataset, FullModel, Gaussian, KernelParams, Poisson, SparseModel,
    SquaredExp,
)
from addgp.errors import NotPositiveDefinite
from addgp.optimize import (
    HISTORY_SIZE,
    LOG_LENGTHSCALE_BOUNDS,
    LOG_VARIANCE_BOUNDS,
    TrainConfig,
    bounds_for_names,
    maximize,
)


def _quadratic(n=5, seed=0):
    """Concave quadratic with a known maximizer and zero maximum."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, n))
    h = q @ q.T + n * np.eye(n)
    t = rng.uniform(-2, 2, size=n)

    def fg(x):
        d = x - t
        return float(-0.5 * d @ h @ d), -(h @ d)

    return fg, t


def test_maximize_finds_quadratic_optimum():
    fg, t = _quadratic()
    cfg = TrainConfig(max_iter=500, rel_tol=1e-14, tol_window=5)
    out = maximize(fg, np.zeros_like(t), [(None, None)] * t.size, cfg)
    assert out.converged
    assert not out.max_iter_reached
    assert out.failures == 0
    assert np.max(np.abs(out.x - t)) < 1e-6
    assert abs(out.f) < 1e-10
    # the recorded trace holds accepted iterates, so it never decreases
    trace = np.asarray(out.trace)
    assert np.all(np.diff(trace) >= -1e-12)


def test_maximize_respects_box_bounds():
    def fg(x):
        return float(-((x[0] - 3.0) ** 2)), np.array([-2.0 * (x[0] - 3.0)])

    cfg = TrainConfig(max_iter=200)
    out = maximize(fg, np.array([0.0]), [(None, 1.0)], cfg)
    assert out.x[0] == pytest.approx(1.0, abs=1e-8)
    assert out.f == pytest.approx(-4.0, abs=1e-8)

    out = maximize(fg, np.array([6.0]), [(4.0, None)], cfg)
    assert out.x[0] == pytest.approx(4.0, abs=1e-8)


def test_maximize_recovers_from_soft_failures():
    # the second evaluation raises; the line search must back off and
    # still land on the optimum
    fg, t = _quadratic(n=3, seed=1)
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] == 2:
            raise NotPositiveDefinite("synthetic failure")
        return fg(x)

    cfg = TrainConfig(max_iter=500, rel_tol=1e-14, tol_window=5)
    out = maximize(flaky, np.zeros_like(t), [(None, None)] * t.size, cfg)
    assert out.failures == 1
    assert np.max(np.abs(out.x - t)) < 1e-6


def test_maximize_all_evaluations_failed():
    def fg(x):
        raise NotPositiveDefinite("always broken")

    x0 = np.array([1.5, -2.0])
    out = maximize(fg, x0, [(None, None)] * 2, TrainConfig(max_iter=50))
    assert not out.converged
    assert out.message == "no successful evaluation"
    assert out.failures >= 1
    assert np.array_equal(out.x, x0)
    assert out.f == -np.inf


def test_maximize_penalizes_non_finite_values():
    def fg(x):
        return np.inf, np.zeros_like(x)

    out = maximize(fg, np.zeros(2), [(None, None)] * 2, TrainConfig())
    assert not out.converged
    assert out.failures >= 1


@pytest.mark.parametrize("model_class", [SparseModel, FullModel])
def test_poisson_overflow_is_a_soft_failure(model_class):
    # at alpha = 800 the posterior mean puts mu + s/2 far past log(max
    # float) = 709, so e^{mu + s/2} overflows: the bound is -inf and its
    # gradients are not finite, and the optimizer counts that as a failure
    # instead of raising
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(12, 1))
    spec = ComponentSpec(
        SquaredExp(KernelParams(0.0, np.log([0.3]))), (0,), np.linspace(0.1, 0.9, 4)[:, None]
    )
    model = model_class([spec], Poisson(), Dataset(X, rng.poisson(2.0, size=12).astype(float)))
    model.state.alpha[...] = 800.0
    marg = model.marginals()
    assert np.max(marg.mu_sum + 0.5 * marg.var_sum) > 709.8
    with pytest.warns(RuntimeWarning) as caught:
        assert model.elbo() == -np.inf
        for hyper in (False, True):
            value, grads = model.elbo_with_grads(train_hypers=hyper)
            assert value == -np.inf
            assert not np.all(np.isfinite(grads["alpha"]))
        fun, x0, bounds, _ = model._make_objective(False)
        out = maximize(fun, x0, bounds, TrainConfig(max_iter=5))
    assert any("overflow" in str(w.message) for w in caught)
    assert out.failures >= 1
    assert out.message == "no successful evaluation"
    assert np.array_equal(out.x, x0)


def test_relative_window_stop_reports_its_own_message():
    fg, _ = _quadratic(n=4, seed=2)
    # a huge tolerance trips the window check on the first opportunity
    cfg = TrainConfig(max_iter=500, rel_tol=1e6, tol_window=2)
    out = maximize(fg, np.zeros(4), [(None, None)] * 4, cfg)
    assert out.converged
    assert "relative change below" in out.message
    assert out.n_iter <= cfg.tol_window + 1


def test_maximize_reports_iteration_cap():
    fg, t = _quadratic(n=6, seed=3)
    cfg = TrainConfig(max_iter=2, rel_tol=1e-16, tol_window=50)
    out = maximize(fg, np.zeros_like(t), [(None, None)] * t.size, cfg)
    assert out.max_iter_reached
    assert out.n_iter <= 3


def test_bounds_for_names_matches_by_substring():
    names = ["log_lengthscale_0", "log_variance", "alpha[3]", "B[0,1]"]
    out = bounds_for_names(names)
    assert out[0] == LOG_LENGTHSCALE_BOUNDS
    assert out[1] == LOG_VARIANCE_BOUNDS
    assert out[2] == (None, None)
    assert out[3] == (None, None)


def test_maximize_evaluates_only_where_lbfgs_asks():
    # the trace takes the accepted value scipy hands the callback, so a run
    # stopped at its iteration cap evaluates exactly as often as scipy alone
    fg, t = _quadratic(n=6, seed=7)
    cfg = TrainConfig(max_iter=4, rel_tol=1e-16, tol_window=50)
    calls = []

    def counted(x):
        calls.append(x.copy())
        return fg(x)

    out = maximize(counted, np.zeros_like(t), [(None, None)] * t.size, cfg)
    ref = minimize(
        lambda x: tuple(-v for v in fg(x)), np.zeros_like(t), jac=True, method="L-BFGS-B",
        bounds=[(None, None)] * t.size,
        options={"maxiter": cfg.max_iter, "maxfun": 15000, "maxcor": HISTORY_SIZE,
                 "ftol": cfg.ftol, "gtol": cfg.gtol},
    )
    assert out.max_iter_reached and ref.status == 1
    assert len(calls) == ref.nfev
    assert out.n_iter == ref.nit == cfg.max_iter
    assert out.trace[-1] == -ref.fun


def _gaussian_model(seed=0, n=30):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 1))
    y = np.sin(6.0 * X[:, 0]) + 0.1 * rng.normal(size=n)
    spec = ComponentSpec(
        SquaredExp(KernelParams(0.0, np.log([0.5]))), (0,), np.linspace(0.05, 0.95, 5)[:, None]
    )
    return SparseModel([spec], Gaussian(np.log(0.5)), Dataset(X, y))


def test_train_phase_two_moves_hypers_past_phase_one():
    # phase 1 at fixed hyperparameters, then phase 2 jointly: the trace of a
    # phase-1-only fit is the two-phase trace's head, and phase 2 moves the
    # hyperparameters and raises the bound past where phase 1 stopped
    cfg = TrainConfig(max_iter=200, phase1_max_iter=30)
    first = _gaussian_model().train(TrainConfig(max_iter=30, train_hypers=False))
    model = _gaussian_model()
    start = model._hypers()
    res = model.train(cfg)
    assert np.array_equal(res.elbo_trace[: len(first.elbo_trace)], first.elbo_trace)
    assert res.n_iter > first.n_iter
    assert res.final_elbo > first.final_elbo + 1.0
    assert not any(np.array_equal(a, b) for a, b in zip(start, model._hypers()))
    assert "bound" in res.summary()


def test_train_without_hyperparameters_runs_one_phase():
    # a frozen constant kernel under Poisson has no hyperparameter, so
    # train_hypers=True runs phase 1 alone, as train_hypers=False does
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(20, 1))
    y = rng.poisson(3.0, size=20).astype(float)

    def model():
        spec = ComponentSpec(Constant(0.0, trainable=False), (0,), np.array([[0.5]]))
        return SparseModel([spec], Poisson(), Dataset(X, y))

    calls = []
    m = model()
    evaluate = m.elbo_with_grads

    def counted(train_hypers=False):
        calls.append(train_hypers)
        return evaluate(train_hypers)

    m.elbo_with_grads = counted
    res = m.train(TrainConfig(max_iter=300, train_hypers=True))
    alone = model().train(TrainConfig(max_iter=300, train_hypers=False))
    assert calls and not any(calls)
    assert np.array_equal(res.elbo_trace, alone.elbo_trace)
    assert res.final_elbo == alone.final_elbo and res.n_iter == alone.n_iter


def test_train_phase1_cap_applies_only_to_phase1():
    # one phase-1 step is all phase 1 may take; phase 2 runs on to max_iter
    res = _gaussian_model().train(TrainConfig(max_iter=500, phase1_max_iter=1, train_hypers=False))
    assert res.max_iter_reached
    assert res.n_iter == 1
    both = _gaussian_model().train(TrainConfig(max_iter=500, phase1_max_iter=1, rel_tol=1e-14))
    assert both.elbo_trace[0] == res.elbo_trace[0]
    assert both.n_iter > 2
    assert not both.max_iter_reached


def test_train_reports_soft_failures_of_both_phases():
    # the second evaluation of each phase raises NotPositiveDefinite
    model = _gaussian_model()
    evaluate = model.elbo_with_grads
    calls = {False: 0, True: 0}

    def flaky(train_hypers=False):
        calls[train_hypers] += 1
        if calls[train_hypers] == 2:
            raise NotPositiveDefinite("synthetic failure")
        return evaluate(train_hypers)

    model.elbo_with_grads = flaky
    res = model.train(TrainConfig(max_iter=100))
    assert calls[False] > 2 and calls[True] > 2
    assert res.failures == 2
    assert np.isfinite(res.final_elbo)
