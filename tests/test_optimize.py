"""Bound-maximization driver on problems with known optima.

The driver wraps L-BFGS-B, so the tests use smooth concave objectives
where the maximizer is available in closed form, plus deliberately
broken objectives to exercise the penalty and all-failed paths.
"""

import numpy as np
import pytest

from addgp import ComponentSpec, Dataset, FullModel, KernelParams, Poisson, SparseModel, SquaredExp
from addgp.errors import NotPositiveDefinite
from addgp.optimize import (
    LOG_LENGTHSCALE_BOUNDS,
    LOG_VARIANCE_BOUNDS,
    TrainConfig,
    bounds_for_names,
    maximize,
    run_two_phase,
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


def test_run_two_phase_joint_optimum():
    # variational parameter v, hyperparameter h; phase 1 fixes h at its
    # current value, phase 2 moves both to the joint optimum (2, 2)
    params = {"v": 0.0, "h": 0.0}

    def make_objective(train_hypers):
        def fun(x):
            v = x[0]
            h = x[1] if train_hypers else params["h"]
            f = -((v - h) ** 2) - (h - 2.0) ** 2
            gv = -2.0 * (v - h)
            if train_hypers:
                gh = 2.0 * (v - h) - 2.0 * (h - 2.0)
                return f, np.array([gv, gh])
            return f, np.array([gv])

        x0 = (
            np.array([params["v"], params["h"]])
            if train_hypers
            else np.array([params["v"]])
        )

        def setter(x):
            params["v"] = x[0]
            if train_hypers:
                params["h"] = x[1]

        return fun, x0, [(None, None)] * len(x0), setter

    res = run_two_phase(make_objective, TrainConfig(max_iter=200))
    assert res.final_elbo == pytest.approx(0.0, abs=1e-8)
    assert params["v"] == pytest.approx(2.0, abs=1e-4)
    assert params["h"] == pytest.approx(2.0, abs=1e-4)
    assert res.n_iter > 0
    assert "bound" in res.summary()


def test_run_two_phase_skips_phase_two_without_hyperparameters():
    fg, t = _quadratic(n=3, seed=4)
    phase2_called = {"flag": False}

    def make_objective(train_hypers):
        if train_hypers:
            phase2_called["flag"] = True

        def setter(x):
            pass

        # same parameter vector in both phases: nothing hyper to train
        return fg, np.zeros_like(t), [(None, None)] * t.size, setter

    res = run_two_phase(make_objective, TrainConfig(max_iter=300))
    # the factory is consulted, but no second optimization runs, so the
    # final bound is already the phase-1 optimum
    assert phase2_called["flag"]
    assert res.final_elbo == pytest.approx(0.0, abs=1e-8)


def test_run_two_phase_phase1_cap_applies_only_to_phase1():
    fg, t = _quadratic(n=4, seed=5)
    seen = []

    def make_objective(train_hypers):
        def setter(x):
            seen.append(x.copy())

        return fg, np.zeros_like(t), [(None, None)] * t.size, setter

    cfg = TrainConfig(
        max_iter=500, phase1_max_iter=1, train_hypers=False, rel_tol=1e-14
    )
    res = run_two_phase(make_objective, cfg)
    assert res.n_iter <= 2
    assert res.max_iter_reached


def test_run_two_phase_reports_soft_failures_of_both_phases():
    # the second evaluation of each phase raises NotPositiveDefinite
    fg, t = _quadratic(n=3, seed=6)

    def make_objective(train_hypers):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] == 2:
                raise NotPositiveDefinite("synthetic failure")
            val, g = fg(x[:3])
            if train_hypers:  # one hyperparameter, optimum at 0
                return val - x[3] ** 2, np.append(g, -2.0 * x[3])
            return val, g

        x0 = np.zeros(4 if train_hypers else 3)
        return flaky, x0, [(None, None)] * len(x0), lambda x: None

    res = run_two_phase(make_objective, TrainConfig(max_iter=200))
    assert res.failures == 2
    assert res.final_elbo == pytest.approx(0.0, abs=1e-8)
