"""Sparse coupled model against dense constructions and classical results.

Besides the dense-assembly cross-checks (KL through the covariance
downdate, marginals through an LU-solved capacitance), the single-component
conjugate case has a well-known collapsed solution: maximizing the bound
over the variational distribution in closed form gives

    L* = log N(y | 0, Q + s2 I) - tr(K - Q) / (2 s2),   Q = F Ku^{-1} F^T.

A trained model with one component must land on that value, and its
predictions must match the collapsed posterior.
"""

import ctypes
import re
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addgp import (
    ComponentSpec,
    Dataset,
    FullModel,
    Gaussian,
    KernelParams,
    Poisson,
    SparseModel,
    SquaredExp,
    dense_gaussian_kl,
    exact_sum_posterior,
)
from addgp import linalg, sparse
from addgp.data import sample_friedman
from addgp.errors import DimensionMismatch, DomainError, InvalidRank, NotPositiveDefinite
from addgp.model import MEAN_FIELD, VariationalState, anova_specs, init_state, mean_field_mask
from addgp.optimize import TrainConfig
from addgp.sparse import decompose, predict_marginals
from conftest import (
    central_diff,
    dense_blocks,
    gaussian_dataset,
    make_specs,
    random_sparse_state,
    woodbury_cov,
)

TIGHT = TrainConfig(
    train_hypers=False,
    max_iter=20000,
    rel_tol=1e-15,
    tol_window=10,
    ftol=1e-16,
    gtol=1e-12,
    seed=0,
)


def _random_model(seed, c=2, m=4, n=9, d=1, r=None, lik=None):
    # jittered-grid inducing points keep K_U well away from singular, so
    # the dense reference constructions retain their full precision
    rng = np.random.default_rng(seed)
    specs = make_specs(rng, c, m, d=d, ls_range=(0.1, 0.3), grid_z=True)
    ds = gaussian_dataset(rng, n, d=d)
    if lik is None:
        lik = Gaussian(np.log(0.5))
    else:
        ds = Dataset(ds.X, rng.poisson(2.0, size=n).astype(float))
    state = random_sparse_state(rng, specs, r=r)
    return SparseModel(specs, lik, ds, state=state)


def _mean_field_model(seed, c=2, m=3, n=7, d=2):
    # a random full-rank coupled instance with B cut to its diagonal blocks
    coupled = _random_model(seed, c=c, m=m, n=n, d=d, r=m * c)
    st = coupled.state
    b = np.where(mean_field_mask(m, c), st.B, 0.0)
    return SparseModel(
        coupled.specs, coupled.likelihood, coupled.data,
        state=VariationalState(st.alpha, b, MEAN_FIELD),
    )


def _anova_model(seed, m=3, n=7, r=2):
    # the anova kernel tree on two inputs: Sum(Constant, ZeroMeanSE), a
    # ZeroMeanSE main effect and a Product of two ZeroMeanSE factors
    rng = np.random.default_rng(seed)
    g = [
        KernelParams(np.log(rng.uniform(0.5, 2.0)), np.log([rng.uniform(0.2, 0.5)]))
        for _ in range(4)
    ]
    specs = anova_specs(g, sigma0=1.3, m=m, ndim=2)
    ds = gaussian_dataset(rng, n, d=2)
    state = random_sparse_state(rng, specs, r=r)
    return SparseModel(specs, Gaussian(np.log(0.5)), ds, state=state)


def test_kl_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for t in range(20):
        c = int(rng.integers(1, 4))
        m = int(rng.integers(2, 13 // c + 1))
        model = _random_model(100 + t, c=c, m=m, n=int(rng.integers(3, 9)))
        K = dense_blocks(model.specs)
        cov = woodbury_cov(K, model.state.B)
        mean = K @ model.state.alpha
        ref = dense_gaussian_kl(mean, cov, np.zeros(len(mean)), K)
        assert abs(model.kl() - ref) < 1e-9, f"instance {t}"


def _stacked_coupling(model):
    """The model's B; lambda stands for B_c = diag(lambda) stacked over c."""
    coupling = getattr(model.state, model.coupling)
    return np.vstack([np.diag(coupling)] * model.c) if coupling.ndim == 1 else coupling


def test_marginals_match_dense_construction():
    rng = np.random.default_rng(1)
    models = []
    for t in range(10):
        c = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5))
        models.append(_random_model(200 + t, c=c, m=m, n=7))
    # a block-diagonal B (R = M C, read block by block) and lambda
    models += [_mean_field_model(210 + t, c=t + 1) for t in range(3)]
    models += [_dense_model(220 + t, c=t + 1) for t in range(3)]
    for model in models:
        specs, X = model.specs, model.data.X
        m = specs[0].m
        K, F = dense_blocks(specs, X)
        B = _stacked_coupling(model)
        A = np.eye(B.shape[1]) + B.T @ K @ B
        J = F @ B
        d0 = sum(s.kernel.diag(s.project(X)) for s in specs)
        var_ref = d0 - np.einsum("ij,ji->i", J, np.linalg.solve(A, J.T))
        for components in (False, True):
            marg = model.marginals(include_components=components)
            assert np.max(np.abs(marg.mu_sum - F @ model.state.alpha)) < 1e-10
            assert np.max(np.abs(marg.var_sum - var_ref)) < 1e-10
        for ci, (mean, var) in enumerate(marg.per_component):
            cols = slice(ci * m, (ci + 1) * m)
            Jc = F[:, cols] @ B[cols]
            vc = specs[ci].kernel.diag(specs[ci].project(X)) - np.einsum(
                "ij,ji->i", Jc, np.linalg.solve(A, Jc.T)
            )
            assert np.max(np.abs(mean - F[:, cols] @ model.state.alpha[cols])) < 1e-10
            assert np.max(np.abs(var - vc)) < 1e-10


def test_zero_state_is_prior():
    model = _random_model(3, c=2, m=4, n=8)
    model.state.alpha[:] = 0.0
    model.state.B[:] = 0.0
    assert model.kl() == pytest.approx(0.0, abs=1e-14)
    marg = model.marginals()
    d0 = sum(s.kernel.diag(s.project(model.data.X)) for s in model.specs)
    assert np.allclose(marg.mu_sum, 0.0)
    assert np.allclose(marg.var_sum, d0, atol=1e-12)


def test_zero_data_has_zero_mean_gradient():
    model = _random_model(4, c=2, m=3, n=6)
    model.state.alpha[:] = 0.0
    model.state.B[:] = 0.0
    model.data.Y[:] = 0.0
    _, g = model.elbo_with_grads()
    assert np.allclose(g["alpha"], 0.0, atol=1e-14)


def test_elbo_never_exceeds_evidence():
    rng = np.random.default_rng(5)
    n, c, d = 18, 2, 2
    X = rng.uniform(0, 1, size=(n, d))
    specs = make_specs(rng, c, 6, d=d, ls_range=(0.2, 0.5))
    sigma2 = 0.4
    Y = rng.normal(size=n)
    ds = Dataset(X, Y)
    ev = exact_sum_posterior(specs, ds, sigma2).log_evidence
    model = SparseModel(specs, Gaussian(np.log(sigma2)), ds)
    for _ in range(10):
        model.state.alpha = rng.normal(size=c * 6) * 0.5
        model.state.B = rng.normal(size=(c * 6, model.state.r)) * 0.5
        assert model.elbo() <= ev + 1e-6


def test_gradients_match_finite_differences():
    models = [
        _random_model(6, c=2, m=3, n=7, d=2, r=2, lik=lik) for lik in (None, Poisson())
    ]
    models.append(_anova_model(6))
    # mean-field: entries off the diagonal blocks are not parameters, so
    # both the analytic and the numerical derivative there are zero
    models.append(_mean_field_model(6))
    for model in models:
        e0, g = model.elbo_with_grads(train_hypers=True)
        st = model.state
        mc, r = st.alpha.size, st.r

        def elbo_at(vec):
            k = 0
            st.alpha = vec[:mc].copy()
            k = mc
            st.B = vec[k : k + mc * r].reshape(mc, r).copy()
            k += mc * r
            for s in model.specs:
                s.kernel.set_params(vec[k : k + s.kernel.n_params])
                k += s.kernel.n_params
            if model.likelihood.n_params:
                model.likelihood.set_params(vec[k:])
            return model.elbo()

        base = np.concatenate(
            [st.alpha, st.B.ravel()]
            + [s.kernel.get_params() for s in model.specs]
            + [model.likelihood.get_params()]
        )
        ana = np.concatenate(
            [g["alpha"].ravel(), g["B"].ravel()]
            + list(g["kernels"])
            + ([g["lik"]] if model.likelihood.n_params else [])
        )
        fd = central_diff(elbo_at, base)
        elbo_at(base)
        rel = np.abs(ana - fd) / np.maximum(1e-6, np.abs(fd))
        assert np.max(rel) < 1e-5


def _collapsed_bound(spec, ds, sigma2):
    """Closed-form optimum of the one-component conjugate bound."""
    n = ds.n
    Ku = spec.kernel.eval(spec.Z)
    F = spec.kernel.eval(spec.project(ds.X), spec.Z)
    Q = F @ np.linalg.solve(Ku + 1e-10 * np.eye(spec.m), F.T)
    gram = Q + sigma2 * np.eye(n)
    _, logdet = np.linalg.slogdet(gram)
    fit = ds.Y @ np.linalg.solve(gram, ds.Y)
    slack = np.sum(spec.kernel.diag(spec.project(ds.X))) - np.trace(Q)
    return (
        -0.5 * (n * np.log(2 * np.pi) + logdet + fit) - slack / (2 * sigma2),
        Q,
        gram,
    )


def test_single_component_matches_collapsed_solution():
    rng = np.random.default_rng(7)
    n, m = 30, 8
    X = rng.uniform(0, 1, size=(n, 1))
    spec = ComponentSpec(
        SquaredExp(KernelParams(np.log(1.3), np.log([0.25]))),
        (0,),
        np.linspace(0.02, 0.98, m)[:, None],
    )
    sigma2 = 0.3
    Y = np.sin(3 * X.ravel()) + rng.normal(0, np.sqrt(sigma2), n)
    ds = Dataset(X, Y)
    bound, Q, gram = _collapsed_bound(spec, ds, sigma2)

    model = SparseModel([spec], Gaussian(np.log(sigma2)), ds)
    res = model.train(TIGHT)
    assert abs(res.final_elbo - bound) < 1e-4

    marg = model.marginals()
    mean_ref = Q @ np.linalg.solve(gram, Y)
    assert np.max(np.abs(marg.mu_sum - mean_ref)) < 1e-4
    d0 = spec.kernel.diag(X)
    var_ref = d0 - np.diag(Q) + np.diag(
        Q - Q @ np.linalg.solve(gram, Q)
    )
    assert np.max(np.abs(marg.var_sum - var_ref)) < 1e-4


def test_bound_monotone_in_inducing_count():
    rng = np.random.default_rng(8)
    n = 30
    X = rng.uniform(0, 1, size=(n, 1))
    Y = np.sin(4 * X.ravel()) + rng.normal(0, 0.5, n)
    ds = Dataset(X, Y)
    # nested inducing sets: each Z is a prefix of a fixed shuffled pool of
    # well-separated sites, so enlarging Z only widens the feasible family
    pool = (np.arange(12)[:, None] + rng.uniform(0.1, 0.9, (12, 1))) / 12
    order = rng.permutation(12)
    best = -np.inf
    for m in (3, 6, 10):
        spec = ComponentSpec(
            SquaredExp(KernelParams(np.log(1.0), np.log([0.3]))),
            (0,),
            pool[order[:m]],
        )
        bound, _, _ = _collapsed_bound(spec, ds, 0.25)
        model = SparseModel([spec], Gaussian(np.log(0.25)), ds)
        res = model.train(TIGHT)
        assert abs(res.final_elbo - bound) < 1e-4
        assert res.final_elbo >= best - 1e-6
        best = max(best, res.final_elbo)


def test_mean_field_structure_is_preserved_by_training():
    rng = np.random.default_rng(9)
    c, m, n = 2, 3, 12
    specs = make_specs(rng, c, m, d=1, ls_range=(0.2, 0.5))
    ds = gaussian_dataset(rng, n)
    model = SparseModel(
        specs, Gaussian(np.log(0.4)), ds, structure=MEAN_FIELD
    )
    res = model.train(
        TrainConfig(train_hypers=False, max_iter=200, seed=1)
    )
    mask = mean_field_mask(m, c)
    off = model.state.B[~mask]
    assert np.all(off == 0.0), "off-block entries must stay exactly zero"
    assert np.any(model.state.B[mask] != 0.0)
    assert res.final_elbo > -np.inf
    assert model.state.structure == MEAN_FIELD


def test_mean_field_factors_c_blocks_of_m(monkeypatch):
    c, m = 3, 4
    model = _mean_field_model(15, c=c, m=m, n=20, d=1)
    shapes = []
    factor = sparse.cholesky

    def recording(a):
        shapes.append(a.shape)
        return factor(a)

    monkeypatch.setattr(sparse, "cholesky", recording)
    model.elbo_with_grads(train_hypers=True)
    assert shapes == [(m, m)] * c
    model.train(TrainConfig(max_iter=5, phase1_max_iter=5, seed=1))
    assert set(shapes) == {(m, m)}


def test_mean_field_coupling_is_checked_where_it_enters():
    # the bound and the marginals read only B's diagonal M x M blocks, so a
    # mean-field B must be (M C, M C) and zero elsewhere when a model is built
    rng = np.random.default_rng(16)
    g = [KernelParams(0.1 * i, np.log([0.3 + 0.05 * i])) for i in range(4)]
    specs = anova_specs(g, sigma0=1.2, m=4, ndim=2)  # C = 3
    ds = Dataset(rng.uniform(0, 1, size=(50, 2)), rng.normal(size=50))
    alpha = rng.normal(size=12)
    b = np.where(mean_field_mask(4, 3), rng.normal(size=(12, 12)), 0.0)
    model = SparseModel(specs, Gaussian(-1.0), ds, state=VariationalState(alpha, b, MEAN_FIELD))
    assert np.isfinite(model.elbo())
    off = b.copy()
    off[0, 11] = 0.5
    with pytest.raises(DimensionMismatch, match="off its diagonal 4 x 4 blocks"):
        SparseModel(specs, Gaussian(-1.0), ds, state=VariationalState(alpha, off, MEAN_FIELD))
    with pytest.raises(InvalidRank, match=r"\(12, 12\), got \(12, 4\)"):
        SparseModel(specs, Gaussian(-1.0), ds,
                    state=VariationalState(alpha, b[:, :4], MEAN_FIELD))


def test_train_counts_soft_failures_over_restarts(monkeypatch):
    # the second evaluation after every start fails; the result counts
    # each failure, whichever restart wins
    model = _random_model(4, c=2, m=3, n=10)
    countdown = {"n": 0}
    perturb, evaluate = model._perturb_start, model.elbo_with_grads

    def start(seed, restart=False):
        countdown["n"] = 2
        perturb(seed, restart=restart)

    def flaky(train_hypers=False):
        countdown["n"] -= 1
        if countdown["n"] == 0:
            raise NotPositiveDefinite("synthetic failure")
        return evaluate(train_hypers=train_hypers)

    monkeypatch.setattr(model, "_perturb_start", start)
    monkeypatch.setattr(model, "elbo_with_grads", flaky)
    res = model.train(TrainConfig(train_hypers=False, max_iter=50, multi_start=2))
    assert res.failures == 3
    assert np.isfinite(res.final_elbo)


def test_restarts_write_the_given_state_in_place():
    # each restart starts over from zero in the caller's state object,
    # which ends at the best restart's parameters
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 1, size=(8, 1))
    dense = FullModel(make_specs(rng, 2, 8, X=X), Gaussian(np.log(0.5)), Dataset(X, X[:, 0]))
    for model in (_random_model(8, c=2, m=3, n=10), _mean_field_model(8), dense):
        state = model.state
        res = model.train(TrainConfig(train_hypers=False, max_iter=20, multi_start=2))
        assert model.state is state
        assert abs(model.elbo() - res.final_elbo) <= 1e-12 * abs(res.final_elbo)
        if getattr(state, "structure", None) == MEAN_FIELD:
            assert not np.any(state.B[~mean_field_mask(3, 2)])


def test_coupled_with_full_rank_nests_mean_field():
    # same data, same kernels, same block-diagonal start: the coupled
    # family contains every mean-field candidate, so its optimum cannot
    # be meaningfully worse
    rng = np.random.default_rng(10)
    c, m, n = 2, 4, 25
    specs_a = make_specs(rng, c, m, d=1, ls_range=(0.25, 0.5))
    ds = gaussian_dataset(rng, n)
    import copy

    specs_b = copy.deepcopy(specs_a)
    cfg = TrainConfig(train_hypers=False, max_iter=4000, rel_tol=1e-12,
                      tol_window=8, seed=2)

    mf = SparseModel(specs_a, Gaussian(np.log(0.4)), ds, structure=MEAN_FIELD)
    pert = np.random.default_rng(42).normal(size=(m * c, m * c)) * 0.01
    mf.state.B = np.where(mean_field_mask(m, c), pert, 0.0)
    res_mf = mf.train(cfg)

    cp = SparseModel(specs_b, Gaussian(np.log(0.4)), ds, r=m * c)
    cp.state.B = np.where(mean_field_mask(m, c), pert, 0.0)
    res_cp = cp.train(cfg)

    assert res_cp.final_elbo >= res_mf.final_elbo - 1e-6


def test_decompose_consistency():
    model = _random_model(11, c=3, m=4, n=8)
    grids = [model.specs[ci].project(model.data.X) for ci in range(3)]
    out = decompose(model.specs, model.state.alpha, model.state.B, grids)
    marg = model.marginals(include_components=True)
    total = sum(mean for _, mean, _ in out)
    assert np.max(np.abs(total - marg.mu_sum)) < 1e-10
    for ci, (_, mean, var) in enumerate(out):
        assert np.max(np.abs(mean - marg.per_component[ci][0])) < 1e-10
        assert np.max(np.abs(var - marg.per_component[ci][1])) < 1e-10


def _check_cases():
    """(specs, alpha, coupling, grids) for a coupled B, a mean-field B and
    lambda (B_c = diag(lambda) with Z_c = X)."""
    cases = []
    for model in (_random_model(12, c=2, m=4, n=8), _mean_field_model(12, c=2, m=4, n=8)):
        grids = [s.project(model.data.X) for s in model.specs]
        cases.append((model.specs, model.state.alpha, model.state.B, grids))
    rng = np.random.default_rng(120)
    X = rng.uniform(0, 1, size=(8, 1))
    cases.append((make_specs(rng, 2, 8, X=X), rng.normal(size=16), rng.normal(size=8), [X, X]))
    return cases


def test_decompose_coupled_check_agrees():
    for specs, alpha, coupling, grids in _check_cases():
        out = decompose(specs, alpha, coupling, grids, coupled_check=True)
        for _, _, _, disc in out:
            assert disc < 1e-7


def test_decompose_coupled_check_catches_a_wrong_read(monkeypatch):
    # scale the reads' whitening by sqrt(1 + 1e-3), B L^{-T} from a
    # triangular solve and, for lambda, L^{-1}, so every read downdate
    # rowsum(t^2), t = J L^{-T}, is 1e-3 too large: the check, which
    # bypasses both, must see it
    scale = np.sqrt(1.0 + 1e-3)
    for name in ("tri_solve", "tri_inverse"):
        real = getattr(linalg, name)
        monkeypatch.setattr(sparse, name, lambda *a, real=real, **k: scale * real(*a, **k))
    for specs, alpha, coupling, grids in _check_cases():
        out = decompose(specs, alpha, coupling, grids, coupled_check=True)
        assert max(disc for _, _, _, disc in out) > 1e-6


def test_nan_query_raises_domain_error():
    # NaN fails every comparison, so the unit-box check must be written to
    # fail on it rather than pass it on to scipy's bare ValueError
    rng = np.random.default_rng(140)
    g = [KernelParams(0.0, np.log([0.3])) for _ in range(4)]
    specs = anova_specs(g, 1.0, m=3, ndim=2)
    xq = np.array([[0.5, np.nan]])
    grids = [np.array([[0.5]]), np.array([[np.nan]]), np.array([[0.5, 0.5]])]
    for B in (rng.normal(size=(9, 3)), np.where(mean_field_mask(3, 3), rng.normal(size=(9, 9)), 0.0)):
        with pytest.raises(DomainError):
            predict_marginals(specs, rng.normal(size=9), B, xq)
        with pytest.raises(DomainError):
            decompose(specs, rng.normal(size=9), B, grids)


@pytest.mark.parametrize("bad", [1.5, np.nan])
def test_query_domain_error_names_the_whole_query(bad):
    # the box check runs over the whole query (or grid) before any row block
    # is read, so a bad value in the third block reports the range of every row
    rng = np.random.default_rng(150)
    g = [KernelParams(0.0, np.log([0.3])) for _ in range(4)]
    specs = anova_specs(g, 1.0, m=3, ndim=2)
    xq = rng.uniform(0, 1, size=(30, 2))
    xq[19, 1] = bad
    col = xq[:, 1]
    text = re.escape(f"(observed range [{col.min():.6g}, {col.max():.6g}])")
    for B in (rng.normal(size=(9, 3)), np.where(mean_field_mask(3, 3), rng.normal(size=(9, 9)), 0.0)):
        with mock.patch.object(sparse, "_ROWS", 8), pytest.raises(DomainError, match=text):
            predict_marginals(specs, rng.normal(size=9), B, xq, include_components=True)
        with mock.patch.object(sparse, "_ROWS", 8), pytest.raises(DomainError, match=text):
            decompose(specs, rng.normal(size=9), B, [xq[:, s.active_dims] for s in specs])


def _near_conjugate_anova(rng):
    """Anova specs on two inputs, 40 rows X, 20 query rows and the B of the
    Gaussian optimum at X with noise 1e-4: B B^T = K^{-1} F^T F K^{-1} / 1e-4.
    The anova constant makes a prior variance d of about 31 where the
    posterior keeps about 6e-4, so d - diag(J A^{-1} J^T) cancels five
    digits, and A's condition number is about 1e7."""
    g = [KernelParams(0.0, np.log([0.3])) for _ in range(4)]
    specs = anova_specs(g, 30.0, m=6, ndim=2)
    m = specs[0].m
    X, Xq = rng.uniform(0, 1, size=(40, 2)), rng.uniform(0, 1, size=(20, 2))
    F = np.hstack([s.kernel.eval(s.project(X), s.Z) for s in specs])
    ku = [s.kernel.eval(s.Z) + 1e-8 * np.eye(m) for s in specs]
    B = np.vstack([np.linalg.solve(k, F[:, ci * m : (ci + 1) * m].T) for ci, k in enumerate(ku)])
    return specs, X, Xq, B / 1e-2


def _downdate_in_40_digits(specs, B, d, j):
    """d - diag(J A^{-1} J^T) row by row, with A^{-1} in 40 digits."""
    m = specs[0].m
    mpmath.mp.dps = 40
    a = mpmath.eye(B.shape[1])
    for ci, s in enumerate(specs):
        bc = mpmath.matrix(B[ci * m : (ci + 1) * m])
        a += bc.T * mpmath.matrix(s.kernel.eval(s.Z)) * bc
    a_inv = a**-1
    return np.array([float(mpmath.mpf(x) - (mpmath.matrix(r).T * a_inv * mpmath.matrix(r))[0])
                     for x, r in zip(d, j)])


def test_read_variances_keep_their_digits_under_a_large_prior_variance():
    # against A^{-1} in 40 digits, the reads (row sums of squares of
    # J L^{-T}) erred by at most 4.4e-13 over seeds 0-3; diag(J P J^T) with
    # P = A^{-1} erred by 7.7e-9 to 1.5e-8
    rng = np.random.default_rng(0)
    specs, _, Xq, B = _near_conjugate_anova(rng)
    c, m = len(specs), specs[0].m
    got = predict_marginals(specs, rng.normal(size=c * m), B, Xq, include_components=True)

    fs = [s.kernel.eval(s.project(Xq), s.Z) for s in specs]
    jc = fs[0] @ B[:m]
    j = sum(f @ B[ci * m : (ci + 1) * m] for ci, f in enumerate(fs))
    d0 = specs[0].kernel.diag(specs[0].project(Xq))
    d = sum(s.kernel.diag(s.project(Xq)) for s in specs)
    for var, dr, jr in ((got.per_component[0][1], d0, jc), (got.var_sum, d, j)):
        assert np.max(np.abs(var - _downdate_in_40_digits(specs, B, dr, jr))) < 1e-11


def test_bound_variances_keep_their_digits_under_a_large_prior_variance():
    # the read test's twin at its 40 rows as training data: against A^{-1}
    # in 40 digits, the s the bound passes to the expected log-likelihood
    # erred by 1.4e-8 to 1.8e-8 (seeds 0-3) as diag(J P J^T) with
    # P = A^{-1}, and by at most 4.9e-14 as the reads' rowsum(t^2),
    # t = J L^{-T}
    rng = np.random.default_rng(0)
    specs, X, _, B = _near_conjugate_anova(rng)
    c, m = len(specs), specs[0].m
    state = VariationalState(rng.normal(size=c * m), B)
    model = SparseModel(specs, Gaussian(np.log(1e-4)), Dataset(X, rng.normal(size=40)), state=state)
    seen, ell = [], model.likelihood.expected_loglik
    with mock.patch.object(model.likelihood, "expected_loglik",
                           lambda y, mu, s: seen.append(s.copy()) or ell(y, mu, s)):
        model.elbo()

    F = np.hstack([s.kernel.eval(s.project(X), s.Z) for s in specs])
    d = sum(s.kernel.diag(s.project(X)) for s in specs)
    ref = _downdate_in_40_digits(specs, B, d, F @ B)
    assert np.max(np.abs(np.concatenate(seen) - ref)) < 1e-11


def _dense_model(seed, n=7, c=2, d=2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, d))
    specs = make_specs(rng, c, n, d=d, X=X)
    model = FullModel(specs, Gaussian(np.log(0.5)), Dataset(X, rng.normal(size=n)))
    model.state.alpha = rng.normal(size=c * n)
    model.state.lam = rng.normal(size=n)
    return model


_READ_MODELS = {
    "coupled": lambda seed: _random_model(seed, c=3, m=4, n=9, d=2),
    "anova": _anova_model,
    "meanfield": _mean_field_model,
    "dense": _dense_model,
}


def _reads(model, Xq, components):
    """Every array of both query read paths, in a fixed order."""
    coupling = getattr(model.state, model.coupling)
    out = []
    for marg in (
        model.marginals(Xq, include_components=components),
        predict_marginals(model.specs, model.state.alpha, coupling, Xq, components),
    ):
        out += [marg.mu_sum, marg.var_sum]
        for mean, var in marg.per_component or ():
            out += [mean, var]
    return out


def test_predict_marginals_matches_method():
    # the model's marginals and predict_marginals build their posteriors
    # with one builder, from the model's blocks of q(U) and from the blocks
    # read off the coupling's zero pattern: every structure, with and
    # without components, agrees to the bit
    for kind, make in _READ_MODELS.items():
        for seed in range(6):
            model = make(seed)
            Xq = np.random.default_rng(seed + 130).uniform(0, 1, size=(6, 2))
            for components in (False, True):
                reads = _reads(model, Xq, components)
                half = len(reads) // 2
                assert half == 2 + 2 * model.c * components
                for a, b in zip(reads[:half], reads[half:]):
                    assert np.array_equal(a, b), (kind, seed, components)


def _openblas_cores():
    """Kernel family each loaded OpenBLAS copy runs ('' if it does not say)."""
    cores = []
    for path in linalg._loaded_openblas_paths():
        lib = ctypes.CDLL(path)
        names = (
            "scipy_openblas_get_corename64_",
            "scipy_openblas_get_corename",
            "openblas_get_corename",
        )
        fn = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
        cores.append(fn().decode() if fn is not None else "")
    return cores


# Blocked and one-pass reads agree to the bit only through BLAS kernels whose
# row unroll divides the block size; that was checked on the SkylakeX kernels
# of OpenBLAS. Elsewhere they are held to rounding.
_BLOCKS_BIT_EQUAL = set(_openblas_cores()) == {"SkylakeX"}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(_READ_MODELS)),
    seed=st.integers(0, 2**16),
    rows=st.sampled_from([0, 1, 7, 8, 9, 17, 19]),
    components=st.booleans(),
)
def test_blocked_reads_match_one_pass(kind, seed, rows, components):
    # Posterior.at in blocks of 8 rows against one pass: row counts 0, 1,
    # _ROWS - 1, _ROWS, _ROWS + 1 and 2 _ROWS + 1 (a lone last row, which
    # joins the block before it) and 2 _ROWS + 3. The block size must be a
    # multiple of the BLAS kernels' row unroll (4 on OpenBLAS SkylakeX), as
    # 4096 is: at 7, rows can land on other lanes of the gemv/gemm kernels
    # and round differently.
    assert sparse._ROWS % 8 == 0
    model = _READ_MODELS[kind](seed)
    Xq = np.random.default_rng(seed + 1).uniform(0, 1, size=(rows, 2))
    with mock.patch.object(sparse, "_ROWS", 8):
        blocked = _reads(model, Xq, components)
    with mock.patch.object(sparse, "_ROWS", rows + 8):
        whole = _reads(model, Xq, components)
    assert len(blocked) == len(whole) == 4 + 4 * model.c * components
    for a, b in zip(blocked, whole):
        assert a.shape == (rows,)
        scale = max(1.0, np.max(np.abs(b), initial=0.0))
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-14 * scale
        if _BLOCKS_BIT_EQUAL:
            assert np.array_equal(a, b)


def test_dense_blocked_reads_agree_with_one_pass_to_rounding():
    # from about N = 500 training rows the product of a block with a dense
    # model's N x N factor L^{-T} rounds a row by its place in the block, so
    # its blocked variances are held to rounding, not to the bit: the
    # largest difference seen, on a fitted 500-row model at one BLAS thread,
    # was 7.1e-15 of max(1, |value|) (1.1e-14 with a triangular solve)
    model = _dense_model(0, n=500)
    Xq = np.random.default_rng(1).uniform(0, 1, size=(2000, 2))
    with mock.patch.object(sparse, "_ROWS", 8):
        blocked = _reads(model, Xq, True)
    # one pass: the entry budget would otherwise cut 500-wide reads into 128 rows
    with mock.patch.object(sparse, "_ROWS", len(Xq) + 8), \
            mock.patch.object(sparse, "_ENTRIES", (len(Xq) + 8) * model.n):
        whole = _reads(model, Xq, True)
    for a, b in zip(blocked, whole):
        assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) <= 1e-12


def test_read_blocks_are_sized_by_the_cross_block_width():
    # up to M = 16 a read keeps 4096-row blocks (and so the bits it had with
    # them); wider ones take the most rows, a multiple of 8, that hold at most
    # _ENTRIES cross-block entries, but never fewer than 128 nor more than _ROWS
    assert (sparse._ROWS, sparse._MIN_ROWS, sparse._ENTRIES) == (4096, 128, 65536)
    for m in range(1, 5001):
        rows = sparse._read_rows(m)
        assert rows % 8 == 0 and 128 <= rows <= sparse._ROWS, (m, rows)
        if m <= 16:
            assert rows == 4096, m
        else:
            assert (rows * m <= 65536 or rows == 128) and (rows + 8) * m > 65536, (m, rows)
    assert sparse._read_rows(500) == sparse._read_rows(2000) == 128


_BOUND_MODELS = {
    "coupled": lambda seed, n: _random_model(seed, c=3, m=4, n=n, d=2),
    "anova": lambda seed, n: _anova_model(seed, n=n),
    "meanfield": lambda seed, n: _mean_field_model(seed, n=n),
    "dense": lambda seed, n: _dense_model(seed, n=n),
}


def _bound_and_grads(model, hyper):
    """The bound and every gradient array of one evaluation, in a fixed order."""
    value, g = model.elbo_with_grads(train_hypers=hyper)
    return value, [g["alpha"], g[model.coupling]] + (g["kernels"] + [g["lik"]] if hyper else [])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(_BOUND_MODELS)),
    seed=st.integers(0, 2**16),
    n=st.sampled_from([9, 11, 17, 19, 25]),
    hyper=st.booleans(),
)
def test_bound_does_not_depend_on_row_blocks(kind, seed, n, hyper):
    # the bound in blocks of 8 training rows against one block: n = 8k + 1
    # puts a lone last row into the block before it, n = 8k + 3 leaves a
    # short last block (the dense model always walks one block). elbo()
    # runs the same loop without gradients, so it is the value of
    # elbo_with_grads in either phase.
    assert sparse._BOUND_ROWS % 8 == 0
    model = _BOUND_MODELS[kind](seed, n)

    def same(a, b):
        # the cached cross block is evaluated once for all rows, a hyper
        # evaluation's per row block: the same bits on the kernels checked
        return a == b if _BLOCKS_BIT_EQUAL else abs(a - b) <= 1e-14 * abs(b)

    with mock.patch.object(sparse, "_BOUND_ROWS", 8):
        value, grads = _bound_and_grads(model, hyper)
        assert same(model.elbo(), value)
    with mock.patch.object(sparse, "_BOUND_ROWS", n + 8):
        whole, whole_grads = _bound_and_grads(model, hyper)
        assert same(model.elbo(), whole)
    assert abs(value - whole) <= 1e-12 * abs(whole)
    assert len(grads) == len(whole_grads) == (3 + model.c if hyper else 2)
    for a, b in zip(grads, whole_grads):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * np.max(np.abs(b), initial=0.0)


def test_bound_memory_does_not_grow_with_n():
    # apart from the cached prior blocks no array of an evaluation is N rows
    # long, so the transient peak of a warm evaluation, fixed or with
    # hyperparameter gradients, is the same at N = 4,000 and N = 16,000
    peaks = {}
    for n in (4000, 16000):
        rng = np.random.default_rng(5)
        specs = make_specs(rng, 3, 8, d=2)
        model = SparseModel(
            specs, Gaussian(np.log(0.5)), gaussian_dataset(rng, n, d=2),
            state=random_sparse_state(rng, specs),
        )
        for hyper in (False, True):
            model.elbo_with_grads(train_hypers=hyper)  # fills the kernel cache
            tracemalloc.start()
            try:
                model.elbo_with_grads(train_hypers=hyper)
                peaks[n, hyper] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    for hyper in (False, True):
        assert peaks[16000, hyper] <= 1.25 * peaks[4000, hyper], peaks


def test_near_duplicate_inducing_inputs_keep_the_bound_finite():
    # two inducing inputs 1e-13 apart in every component leave each K_U
    # numerically singular; nothing factors K_U, so the bound, every
    # gradient and a short training run stay finite
    rng = np.random.default_rng(17)
    g = [KernelParams(np.log(0.5), np.log([0.3])) for _ in range(4)]
    specs = anova_specs(g, sigma0=1.0, m=6, ndim=2)
    for s in specs:
        s.Z[1] = s.Z[0] + 1e-13
        assert np.linalg.cond(s.kernel.eval(s.Z)) > 1e15
    model = SparseModel(
        specs, Gaussian(np.log(0.3)), gaussian_dataset(rng, 60, d=2),
        state=random_sparse_state(rng, specs),
    )
    e0 = model.elbo()
    for hyper in (False, True):
        value, grads = _bound_and_grads(model, hyper)
        assert np.isfinite(value)
        assert all(np.all(np.isfinite(a)) for a in grads)
    res = model.train(TrainConfig(phase1_max_iter=20, max_iter=10, seed=0))
    assert res.failures == 0
    assert np.isfinite(res.final_elbo) and res.final_elbo > e0


def test_clamped_variances_bound_and_gradients():
    # a prior variance of 1e-14 puts every raw variance below VAR_CLAMP;
    # alpha and B scaled by 1e7 keep the KL terms of order one
    rng = np.random.default_rng(21)
    c, m, n, scale = 2, 3, 8, 1e7
    specs = make_specs(rng, c, m, d=1, grid_z=True)
    for s in specs:
        params = s.kernel.get_params()  # log variance first
        params[0] = np.log(1e-14)
        s.kernel.set_params(params)
    model = SparseModel(
        specs, Gaussian(np.log(0.5)), gaussian_dataset(rng, n),
        state=random_sparse_state(rng, specs, r=2),
    )
    st = model.state
    st.alpha *= scale
    st.B *= scale

    marg = model.marginals()
    assert np.all(marg.var_sum < sparse.VAR_CLAMP)
    clamped = np.full(n, sparse.VAR_CLAMP)
    ell = np.sum(model.likelihood.expected_loglik(model.data.Y, marg.mu_sum, clamped))
    assert abs(model.elbo() - (ell - model.kl())) <= 1e-12 * abs(model.elbo())

    # derivatives in the scaled coordinates alpha / 1e7, B / 1e7
    _, g = model.elbo_with_grads()
    mc = st.alpha.size
    base = np.concatenate([st.alpha, st.B.ravel()]) / scale

    def elbo_at(vec):
        st.alpha = vec[:mc] * scale
        st.B = vec[mc:].reshape(st.B.shape) * scale
        return model.elbo()

    fd = central_diff(elbo_at, base)
    elbo_at(base)
    ana = scale * np.concatenate([g["alpha"].ravel(), g["B"].ravel()])
    rel = np.abs(ana - fd) / np.maximum(1e-6, np.abs(fd))
    assert np.max(rel) < 1e-5

    res = model.train(TrainConfig(train_hypers=False, max_iter=3))
    assert res.clamp_count > 0


def test_poisson_training_improves_bound():
    rng = np.random.default_rng(14)
    n, m = 40, 6
    X = rng.uniform(0, 1, size=(n, 1))
    rate = np.exp(1.0 + np.sin(4 * X.ravel()))
    Y = rng.poisson(rate).astype(float)
    spec = ComponentSpec(
        SquaredExp(KernelParams(np.log(1.0), np.log([0.3]))),
        (0,),
        np.linspace(0.05, 0.95, m)[:, None],
    )
    model = SparseModel([spec], Poisson(), Dataset(X, Y))
    e0 = model.elbo()
    res = model.train(TrainConfig(train_hypers=True, max_iter=500, seed=0))
    assert res.final_elbo > e0 + 1.0
    marg = model.marginals()
    # posterior mean rate should correlate with the generating rate
    corr = np.corrcoef(np.exp(marg.mu_sum + 0.5 * marg.var_sum), rate)[0, 1]
    assert corr > 0.5


def _friedman_anova_model(n, seed=0):
    """A coupled model as the CLI builds one for ``sample_friedman(n)``: anova
    components (C = 7, M = R = 16, so C M = 112) and a generic state."""
    X, Y = sample_friedman(n, seed=seed)
    var0, sigma0 = max(float(np.var(Y)) / 7, 1e-2), max(float(np.var(Y)), 1e-2)
    g = [KernelParams(np.log(var0), np.array([np.log(0.3)])) for _ in range(8)]
    model = SparseModel(anova_specs(g, sigma0, m=16, ndim=6), Gaussian(0.0), Dataset(X, Y))
    model.state.alpha[...] = np.random.default_rng(seed).normal(size=model.state.alpha.shape)
    model._perturb_start(seed, restart=True)
    return model


@pytest.mark.parametrize("n", [1537, 1600])
def test_bound_does_not_depend_on_product_pieces(n):
    # a 1,537-row block (a lone last row joined to it) and a 64-row one after
    # 1,536 rows: the bound's products of a block with C M = 112 columns run in
    # row pieces, and agree with whole products to rounding in either phase;
    # elbo() reads the same pieces, so it is the bound's value to the bit
    assert sparse._piece_rows(112, 17) < sparse._BOUND_ROWS
    model = _friedman_anova_model(n)
    for hyper in (False, True):
        value, grads = _bound_and_grads(model, hyper)
        assert model.elbo() == value
        with mock.patch.object(sparse, "_SMALL_GEMM", 10**12):
            assert sparse._piece_rows(112, 17) > n
            whole, whole_grads = _bound_and_grads(model, hyper)
        assert abs(value - whole) <= 1e-13 * abs(whole)
        for a, b in zip(grads, whole_grads, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_mean_field_products_stay_whole():
    # a mean-field block's products, (rows, 16) by [alpha, B~] and its
    # transpose by u = [dE/dmu, U], both 17 columns, are one piece per row block
    assert sparse._piece_rows(16, 17) >= sparse._BOUND_ROWS
