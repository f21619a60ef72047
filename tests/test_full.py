"""Dense coupled model: KL, marginals and gradients against dense oracles.

The posterior covariance implied by (alpha, lambda) is assembled explicitly
through the downdate form of the Woodbury identity (see conftest) and
compared with the factored quantities the model computes. Gradients are
checked with central differences through the public elbo().
"""

import copy
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from addgp import (
    CapExceeded,
    ComponentSpec,
    Dataset,
    DimensionMismatch,
    FullModel,
    Gaussian,
    KernelParams,
    Poisson,
    SquaredExp,
    anova_specs,
    dense_gaussian_kl,
    exact_sum_posterior,
)
from addgp import sparse
from addgp.data import sample_friedman
from addgp.full import N_WARN, predict_marginals
from addgp.io import SavedModel, save_model
from addgp.model import FULL
from addgp.optimize import TrainConfig
from conftest import (
    central_diff,
    conjugate_instance,
    dense_friedman_model,
    make_specs,
    run_fresh,
    woodbury_cov,
)


def _random_model(seed, n=8, c=2, d=2, lik=None):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, d))
    specs = make_specs(rng, c, n, d=d, ls_range=(0.2, 0.6), X=X)
    if lik is None:
        lik = Gaussian(np.log(0.5))
        Y = rng.normal(size=n)
    else:
        Y = rng.poisson(2.0, size=n).astype(float)
    model = FullModel(specs, lik, Dataset(X, Y))
    model.state.alpha = rng.normal(size=c * n) * 0.6
    model.state.lam = rng.normal(size=n) * 0.8
    return model


def _anova_model(seed, n=6):
    """A dense model on the anova components for two inputs: a Sum of a
    Constant and a ZeroMeanSE, a ZeroMeanSE and a Product of two."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 2))
    g = [KernelParams(np.log(rng.uniform(0.5, 1.5)), np.log([rng.uniform(0.2, 0.6)]))
         for _ in range(4)]
    model = FullModel(
        anova_specs(g, sigma0=0.8, m=4, ndim=2), Gaussian(np.log(0.5)),
        Dataset(X, rng.normal(size=n)),
    )
    model.state.alpha = rng.normal(size=model.c * n) * 0.6
    model.state.lam = rng.normal(size=n) * 0.8
    return model


def _dense_pieces(model):
    """Blockwise prior covariance K (NC x NC) and the coupling factor
    (1_C kron Lambda), both assembled by hand."""
    n, c = model.n, model.c
    K = np.zeros((n * c, n * c))
    for ci, s in enumerate(model.specs):
        K[ci * n : (ci + 1) * n, ci * n : (ci + 1) * n] = s.kernel.eval(model.data.X)
    U = np.tile(np.diag(model.state.lam), (c, 1))
    return K, U


def test_kl_matches_dense_oracle():
    for seed in range(8):
        model = _random_model(seed)
        K, U = _dense_pieces(model)
        cov = woodbury_cov(K, U)
        mean = K @ model.state.alpha
        ref = dense_gaussian_kl(mean, cov, np.zeros(len(mean)), K)
        assert abs(model.kl() - ref) < 1e-9, f"seed {seed}"


def test_kl_zero_at_prior_matching_state():
    model = _random_model(1)
    model.state.alpha[:] = 0.0
    model.state.lam[:] = 0.0
    assert model.kl() == pytest.approx(0.0, abs=1e-14)


def test_marginals_match_dense_construction():
    for seed in range(5):
        model = _random_model(seed, n=7, c=3)
        K, U = _dense_pieces(model)
        cov = woodbury_cov(K, U)
        mean = K @ model.state.alpha
        n, c = model.n, model.c
        # sum over component blocks of the joint mean / covariance
        sum_mean = sum(mean[ci * n : (ci + 1) * n] for ci in range(c))
        blocks = [
            cov[ci * n : (ci + 1) * n, cj * n : (cj + 1) * n]
            for ci in range(c)
            for cj in range(c)
        ]
        sum_var = np.diag(sum(blocks))
        marg = model.marginals()
        assert np.max(np.abs(marg.mu_sum - sum_mean)) < 1e-9
        assert np.max(np.abs(marg.var_sum - sum_var)) < 1e-9


def test_per_component_marginals():
    model = _random_model(4, n=6, c=2)
    K, U = _dense_pieces(model)
    cov = woodbury_cov(K, U)
    mean = K @ model.state.alpha
    n = model.n
    marg = model.marginals(include_components=True)
    for ci in range(model.c):
        mu_c, var_c = marg.per_component[ci]
        sl = slice(ci * n, (ci + 1) * n)
        assert np.max(np.abs(mu_c - mean[sl])) < 1e-10
        assert np.max(np.abs(var_c - np.diag(cov[sl, sl]))) < 1e-10
    total = sum(p[0] for p in marg.per_component)
    assert np.max(np.abs(total - marg.mu_sum)) < 1e-10


def test_prior_state_marginals():
    model = _random_model(2)
    model.state.alpha[:] = 0.0
    model.state.lam[:] = 0.0
    marg = model.marginals()
    d0 = sum(s.kernel.diag(model.data.X) for s in model.specs)
    assert np.allclose(marg.mu_sum, 0.0)
    assert np.allclose(marg.var_sum, d0, atol=1e-12)
    assert np.all(marg.var_sum > 0)


def test_predict_marginals_module_function():
    model = _random_model(6, n=8, c=2)
    rng = np.random.default_rng(60)
    Xq = rng.uniform(0, 1, size=(5, 2))
    got = model.marginals(Xq=Xq, include_components=True)
    # brute force through the joint covariance over train + query points
    assert got.mu_sum.shape == (5,)
    assert np.all(got.var_sum > 0)
    total = sum(p[0] for p in got.per_component)
    assert np.max(np.abs(total - got.mu_sum)) < 1e-10


def test_elbo_never_exceeds_evidence():
    specs, ds, sigma2, lik = conjugate_instance(7, n=20, c=2)
    model = FullModel(specs, lik, ds)
    rng = np.random.default_rng(70)
    ev = exact_sum_posterior(specs, ds, sigma2).log_evidence
    for _ in range(10):
        model.state.alpha = rng.normal(size=model.n * model.c) * 0.5
        model.state.lam = rng.normal(size=model.n)
        assert model.elbo() <= ev + 1e-6


def _check_gradients(model, hyper):
    """Analytic gradients of one phase against central differences of elbo()."""
    e0, g = model.elbo_with_grads(train_hypers=hyper)
    st = model.state
    n, c = model.n, model.c
    sizes = [c * n, n]
    kparams = [s.kernel.get_params() for s in model.specs] if hyper else []
    lparams = [model.likelihood.get_params()] if hyper else []

    def pack():
        return np.concatenate([st.alpha, st.lam] + kparams + lparams)

    def elbo_at(vec):
        k = 0
        st.alpha = vec[:sizes[0]].copy()
        k += sizes[0]
        st.lam = vec[k : k + n].copy()
        k += n
        if hyper:
            for s in model.specs:
                s.kernel.set_params(vec[k : k + s.kernel.n_params])
                k += s.kernel.n_params
            if model.likelihood.n_params:
                model.likelihood.set_params(vec[k:])
        return model.elbo()

    base = pack()
    ana = [g["alpha"].ravel(), g["lam"]]
    if hyper:
        ana += list(g["kernels"]) + ([g["lik"]] if model.likelihood.n_params else [])
    ana = np.concatenate(ana)
    fd = central_diff(elbo_at, base)
    elbo_at(base)
    rel = np.abs(ana - fd) / np.maximum(1e-6, np.abs(fd))
    assert np.max(rel) < 1e-5


def test_gradients_match_finite_differences():
    for lik in (None, Poisson()):
        _check_gradients(_random_model(8, n=6, c=2, lik=lik), hyper=True)


def test_gradients_through_composite_kernels_match_finite_differences():
    # every kernel class of the anova model meets the Gram weight that the
    # components share, in both phases
    for seed in (0, 1):
        model = _anova_model(seed)
        kinds = [type(s.kernel).__name__ for s in model.specs]
        assert kinds == ["Sum", "ZeroMeanSE", "Product"]
        for hyper in (False, True):
            _check_gradients(model, hyper)


def test_hyper_evaluation_keeps_the_gram_cache_honest():
    # a hyperparameter-gradient evaluation writes its Grams over the cached
    # ones; the cache must then answer for the new hyperparameters, without
    # evaluating a kernel again, and no longer for the old
    model = _anova_model(2, n=9)
    old = [s.kernel.get_params() for s in model.specs]
    e_old = model.elbo()
    rng = np.random.default_rng(20)
    new = [p + rng.uniform(-0.3, 0.3, size=p.shape) for p in old]
    for reads in (True, False):
        for s, p in zip(model.specs, new):
            s.kernel.set_params(p)
        model.elbo_with_grads(train_hypers=True)
        if reads:
            fresh = FullModel(copy.deepcopy(model.specs), model.likelihood, model.data,
                              copy.deepcopy(model.state))
            with mock.patch.object(model, "_prior_blocks") as blocks:
                assert model.elbo() == fresh.elbo() != e_old
                assert model.kl() == fresh.kl()
                got, ref = model.marginals(), fresh.marginals()
            assert blocks.call_count == 0
            assert np.array_equal(got.mu_sum, ref.mu_sum)
            assert np.array_equal(got.var_sum, ref.var_sum)
        for s, p in zip(model.specs, old):
            s.kernel.set_params(p)
        assert model.elbo() == e_old


def test_hyper_evaluation_memory():
    # a warm hyperparameter-gradient evaluation at N = 300 holds at most 24
    # N x N arrays at its peak, the cached Grams not counted
    n = 300
    X, Y = sample_friedman(n, seed=0)
    var0, sigma0 = max(float(np.var(Y)) / 7, 1e-2), max(float(np.var(Y)), 1e-2)
    g = [KernelParams(np.log(var0), np.array([np.log(0.3)])) for _ in range(8)]
    model = FullModel(anova_specs(g, sigma0, m=16, ndim=6), Gaussian(0.0), Dataset(X, Y))
    rng = np.random.default_rng(3)
    model.state.alpha = rng.normal(size=model.c * n) * 0.05
    model.state.lam = rng.normal(size=n) * 0.5 + 1.0
    model.elbo_with_grads(train_hypers=True)  # fills the Gram cache
    tracemalloc.start()
    try:
        model.elbo_with_grads(train_hypers=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 8 * n * n, peak / (8 * n * n)


def test_dense_evaluation_memory_counting_the_workspace():
    # traced from before the model is built, so the buffers the bound writes
    # over count: between evaluations the model holds them, at most 6 N x N
    # arrays and N floats beyond the Gram stack (C Grams and their sum), and
    # a warm evaluation peaks at most 8 (fixed) and 14 (hyper) N x N above it
    n = 300
    nn = 8 * n * n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = dense_friedman_model(n)
        stack = (model.c + 1) * nn
        peaks = []
        for hyper in (False, True):
            for _ in range(2):
                model.elbo_with_grads(train_hypers=hyper)
            held = tracemalloc.get_traced_memory()[0] - base - stack
            assert held <= 6 * nn + 8 * n, held / nn
            tracemalloc.reset_peak()
            model.elbo_with_grads(train_hypers=hyper)
            peaks.append((tracemalloc.get_traced_memory()[1] - base - stack) / nn)
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 8 and peaks[1] <= 14, peaks


def test_dense_read_keeps_no_gram_list():
    # a read from the specs alone sums the Grams as it evaluates them, so its
    # peak holds no list of C of them
    n = 300
    model = dense_friedman_model(n)
    Xq = np.random.default_rng(4).uniform(0, 1, size=(1000, 6))
    tracemalloc.start()
    try:
        sparse.predict_marginals(model.specs, model.state.alpha, model.state.lam, Xq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 23 * 8 * n * n, peak / (8 * n * n)


def test_dense_reads_hold_128_row_blocks():
    # a dense read at N = 500 walks 128 rows at a time, so on 2,000 rows its
    # peak is the posterior's N x N arrays (the Gram sum and a composite
    # Gram's factors while they are summed, L^{-1} over A and B~: at most 5)
    # and a few 128 x N blocks; one 2,000-row block would be 4 N x N
    n = 500
    nn, block = 8 * n * n, 8 * 128 * n
    model = dense_friedman_model(n)
    rng = np.random.default_rng(4)
    Xq = rng.uniform(0, 1, size=(2000, 6))
    grids = [rng.uniform(0, 1, size=(2000, len(s.active_dims))) for s in model.specs]
    alpha, lam = model.state.alpha, model.state.lam
    for read in (
        lambda: predict_marginals(model.specs, alpha, lam, Xq),
        lambda: predict_marginals(model.specs, alpha, lam, Xq, include_components=True),
        lambda: sparse.decompose(model.specs, alpha, lam, grids),
    ):
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * nn + 8 * block, (peak - 5 * nn) / block


def test_warm_dense_evaluations_map_little_fresh_memory():
    # the bound writes over its model's buffers and the kernels of one-leaf
    # components over their cached Grams, so a warm evaluation at N = 300
    # takes at most one N x N array's worth of minor faults (176 pages of
    # 4 KiB) with fixed hyperparameters and 1,400 with their gradients; a
    # fresh process, as earlier tests change the allocator's state
    faults = run_fresh("""
        import json, resource
        from conftest import dense_friedman_model

        model = dense_friedman_model(300)
        faults = []
        for hyper in (False, True):
            for _ in range(2):
                model.elbo_with_grads(train_hypers=hyper)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                model.elbo_with_grads(train_hypers=hyper)
            faults.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
        print(json.dumps(faults))
    """)
    assert faults[0] <= 176 and faults[1] <= 1400, faults


def test_the_buffers_belong_to_one_model_and_no_result_aliases_them():
    # two models evaluated alternately, in both phases, with reads between
    # the evaluations, give each evaluation and read the bits of a fresh model
    # evaluated once; no returned array changes when the next evaluation
    # writes over the buffers
    shapes = ((40, 40), (41, 60))  # (seed, N)

    def evaluate(model, k):
        model.state.lam[...] = lam0s[model.n] * (1.0 + 0.25 * k)
        val, g = model.elbo_with_grads(train_hypers=k % 2 == 1)
        return [val, g["alpha"], g["lam"], *g.get("kernels", []), g.get("lik", 0.0)]

    def reads(model):
        marg = model.marginals(include_components=True)
        return [model.kl(), marg.mu_sum, marg.var_sum,
                *(a for pair in marg.per_component for a in pair)]

    def same(a, b):
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))

    lam0s = {n: _anova_model(seed, n).state.lam.copy() for seed, n in shapes}
    models = [_anova_model(seed, n) for seed, n in shapes]
    kept = []
    for k in range(4):
        for model, (seed, n) in zip(models, shapes):
            got = evaluate(model, k)
            kept.append((seed, n, k, got, copy.deepcopy(got)))
            fresh = _anova_model(seed, n)
            assert same(got, evaluate(fresh, k))
            assert same(reads(model), reads(fresh))
    for seed, n, k, got, snapshot in kept:
        assert same(got, snapshot), (seed, k)


def test_elbo_equals_evidence_at_conjugate_optimum():
    # plugging the closed-form optimum into the bound recovers the evidence
    specs, ds, sigma2, lik = conjugate_instance(9, n=18, c=2)
    model = FullModel(specs, lik, ds)
    ksum = sum(s.kernel.eval(ds.X) for s in specs)
    gram = ksum + sigma2 * np.eye(ds.n)
    a_opt = np.linalg.solve(gram, ds.Y)
    model.state.alpha = np.tile(a_opt, model.c)
    model.state.lam = np.full(ds.n, 1.0 / np.sqrt(sigma2))
    ev = exact_sum_posterior(specs, ds, sigma2).log_evidence
    assert abs(model.elbo() - ev) < 1e-9 * max(1.0, abs(ev))


def test_training_improves_bound_and_traces_monotone():
    specs, ds, sigma2, lik = conjugate_instance(10, n=25, c=2)
    model = FullModel(specs, lik, ds)
    e0 = model.elbo()
    res = model.train(TrainConfig(train_hypers=False, max_iter=300, seed=0))
    assert res.final_elbo > e0 + 1.0
    trace = np.asarray(res.elbo_trace)
    assert trace.size == res.n_iter
    # accepted iterates never lose more than rounding noise
    drops = np.diff(trace)
    assert drops.min() > -1e-7 * (1.0 + np.abs(trace).max())


def test_size_cap_and_warning():
    X = np.zeros((5001, 1))
    with pytest.raises(CapExceeded):
        FullModel(
            [ComponentSpec(SquaredExp(KernelParams(0.0, np.zeros(1))), (0,), X)],
            Gaussian(),
            Dataset(X, np.zeros(5001)),
        )
    n = N_WARN + 1
    Xw = np.random.default_rng(0).uniform(0, 1, size=(n, 1))
    with pytest.warns(RuntimeWarning):
        FullModel(
            [ComponentSpec(SquaredExp(KernelParams(0.0, np.zeros(1))), (0,), Xw)],
            Gaussian(),
            Dataset(Xw, np.zeros(n)),
        )


def test_inducing_inputs_are_the_training_inputs(tmp_path):
    # the dense model's Z_c is X whatever its specs carry: Z outside the
    # centered kernels' unit box, in unequal counts, builds the model that
    # Z = X specs build, to the bit
    rng = np.random.default_rng(31)
    n = 9
    X = rng.uniform(0, 1, size=(n, 2))
    ds = Dataset(X, rng.normal(size=n))
    g = [KernelParams(np.log(rng.uniform(0.5, 1.5)), np.log([rng.uniform(0.2, 0.6)]))
         for _ in range(4)]
    specs = anova_specs(g, sigma0=0.8, m=4, ndim=2)
    wild = [ComponentSpec(copy.deepcopy(s.kernel), s.active_dims,
                          rng.uniform(2.0, 3.0, size=(3 + ci, len(s.active_dims))))
            for ci, s in enumerate(specs)]
    at_x = [ComponentSpec(copy.deepcopy(s.kernel), s.active_dims, s.project(X)) for s in specs]
    alpha, lam = rng.normal(size=len(specs) * n) * 0.6, rng.normal(size=n) * 0.8
    models = [FullModel(sp, Gaussian(np.log(0.5)), ds) for sp in (wild, at_x)]
    Xq = rng.uniform(0, 1, size=(5, 2))
    outs = []
    for i, model in enumerate(models):
        assert all(np.array_equal(s.Z, s.project(X)) for s in model.specs)
        model.state.alpha[...], model.state.lam[...] = alpha, lam
        out = [model.kl()]
        for hyper in (False, True):
            val, grads = model.elbo_with_grads(train_hypers=hyper)
            out += [val, grads["alpha"], grads["lam"], *grads.get("kernels", []),
                    grads.get("lik", 0.0)]
        marg = model.marginals(Xq, include_components=True)
        out += [marg.mu_sum, marg.var_sum, *(a for pair in marg.per_component for a in pair)]
        path = tmp_path / f"dense{i}.addgp"
        save_model(path, SavedModel(FULL, model.specs, model.likelihood, model.state.alpha,
                                    lam=model.state.lam, input_dim=2))
        outs.append(out + [path.read_bytes()])
    assert len(outs[0]) == len(outs[1])
    for a, b in zip(*outs):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_column_outside_the_data_names_its_component():
    rng = np.random.default_rng(32)
    X = rng.uniform(0, 1, size=(6, 2))
    kern = SquaredExp(KernelParams(0.0, np.zeros(1)))
    specs = [ComponentSpec(kern, (0,), X[:, :1]), ComponentSpec(kern, (5,), X[:, :1])]
    with pytest.raises(DimensionMismatch, match="input columns"):
        specs[1].project(X)
    with pytest.raises(DimensionMismatch, match="component 1"):
        FullModel(specs, Gaussian(), Dataset(X, np.zeros(6)))


def test_decompose_training_grids():
    from addgp.full import decompose

    model = _random_model(11, n=7, c=2)
    grids = [model._xp[ci] for ci in range(model.c)]
    out = decompose(model.specs, model.state.alpha, model.state.lam, grids)
    assert len(out) == 2
    marg = model.marginals(include_components=True)
    for ci, (g, mean, var) in enumerate(out):
        assert np.max(np.abs(mean - marg.per_component[ci][0])) < 1e-9
        assert np.max(np.abs(var - marg.per_component[ci][1])) < 1e-9


def test_fixed_dense_evaluations_form_neither_p_nor_its_square():
    # Lambda z = I - P gives diag(J Omega) without P, and -Psi = Z^T Z is one
    # syrk: a fixed evaluation takes no lauum and one syrk, and one with
    # hyperparameter gradients adds only the syrk of its Omega
    model = dense_friedman_model(60)
    counts = []
    for hyper in (False, True):
        model.elbo_with_grads(train_hypers=hyper)
        with mock.patch.object(sparse, "inverse_from_tri_inverse",
                               wraps=sparse.inverse_from_tri_inverse) as lauum, \
                mock.patch.object(sparse, "sym_square", wraps=sparse.sym_square) as syrk:
            model.elbo_with_grads(train_hypers=hyper)
        counts.append((lauum.call_count, syrk.call_count))
    assert counts == [(0, 1), (0, 2)], counts


class _ConvexGaussian(Gaussian):
    """A stub whose expected log-likelihood is convex in the variance."""

    def expected_loglik_grads(self, y, mu, var):
        gmu, gs = super().expected_loglik_grads(y, mu, var)
        return gmu, -gs


def test_a_positive_variance_gradient_is_refused():
    # the dense bound takes sqrt(-dE/ds), which needs a log-concave likelihood
    model = _random_model(4)
    model.likelihood = _ConvexGaussian(np.log(0.5))
    for hyper in (False, True):
        with pytest.raises(ValueError, match="_ConvexGaussian"):
            model.elbo_with_grads(train_hypers=hyper)
    assert np.isfinite(model.elbo())
