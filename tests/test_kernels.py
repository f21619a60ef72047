"""Kernel evaluations, analytic integrals and hyperparameter gradients.

The closed-form unit-interval integrals are checked against Gauss-Legendre
quadrature (400 nodes resolves every lengthscale used here to well below
1e-12), and every kernel's pullback is checked against
central finite differences in log-parameter space: pulling back the unit
matrix E_ij yields entry (i, j) of every derivative matrix, so the full
dK/dtheta_p is rebuilt and compared entry by entry.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from addgp import (
    ComponentSpec,
    Constant,
    Dataset,
    DomainError,
    FullModel,
    Gaussian,
    KernelParams,
    Product,
    SavedModel,
    SparseModel,
    SquaredExp,
    Sum,
    ZeroMeanSE,
    build_anova_kernel,
    kernels,
    load_model,
    save_model,
    se_double_integral,
    se_mean_embedding,
    sparse,
)
from addgp.model import COUPLED, anova_specs
from addgp.data import sample_friedman
from conftest import central_diff

# 400-point Gauss-Legendre rule mapped to [0, 1]
_GL_X, _GL_W = leggauss(400)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


def _quad(fun):
    return float(np.sum(_GL_W * fun(_GL_X)))


def test_squared_exp_known_values():
    k = SquaredExp(KernelParams(np.log(2.0), np.log([0.5])), active_dims=(0,))
    x = np.array([[0.0], [1.0]])
    K = k.eval(x)
    assert np.allclose(np.diag(K), 2.0)
    assert np.isclose(K[0, 1], 2.0 * np.exp(-0.5 * (1.0 / 0.5) ** 2))
    assert np.allclose(K, K.T)


def test_squared_exp_anisotropic_and_psd():
    rng = np.random.default_rng(0)
    k = SquaredExp(
        KernelParams(np.log(1.3), np.log([0.4, 0.9])), active_dims=(0, 1)
    )
    X = rng.uniform(0, 1, size=(20, 2))
    K = k.eval(X)
    w = np.linalg.eigvalsh(K)
    assert w.min() > -1e-10
    # anisotropy: distance along the short lengthscale decays faster
    a = k.eval(np.array([[0.0, 0.0]]), np.array([[0.3, 0.0]]))[0, 0]
    b = k.eval(np.array([[0.0, 0.0]]), np.array([[0.0, 0.3]]))[0, 0]
    assert a < b


def test_squared_exp_diag_matches_eval():
    rng = np.random.default_rng(1)
    k = SquaredExp(KernelParams(0.3, np.log([0.7])), active_dims=(0,))
    X = rng.uniform(0, 1, size=(9, 1))
    assert np.allclose(k.diag(X), np.diag(k.eval(X)))


@pytest.mark.parametrize("ell", [0.08, 0.3, 1.5])
def test_mean_embedding_matches_quadrature(ell):
    params = KernelParams(np.log(1.7), np.log([ell]))
    k = SquaredExp(params, active_dims=(0,))
    for x in (0.0, 0.21, 0.5, 0.93, 1.0):
        ref = _quad(lambda t: k.eval(np.array([[x]]), t[:, None])[0])
        assert abs(se_mean_embedding(params, x) - ref) < 1e-12


@pytest.mark.parametrize("ell", [0.08, 0.3, 1.5])
def test_double_integral_matches_quadrature(ell):
    params = KernelParams(np.log(0.9), np.log([ell]))
    ref = _quad(lambda s: np.array([se_mean_embedding(params, si) for si in s]))
    assert abs(se_double_integral(params) - ref) < 1e-12


def test_zero_mean_se_integrates_to_zero():
    k = ZeroMeanSE(KernelParams(np.log(1.2), np.log([0.25])))
    for x in (0.0, 0.37, 0.8, 1.0):
        resid = _quad(lambda t: k.eval(np.array([[x]]), t[:, None])[0])
        assert abs(resid) < 1e-12


def test_zero_mean_se_construction():
    params = KernelParams(np.log(1.2), np.log([0.3]))
    k = ZeroMeanSE(params)
    g = SquaredExp(params, active_dims=(0,))
    X = np.array([[0.1], [0.6], [0.95]])
    m = se_mean_embedding(params, X.ravel())
    q = se_double_integral(params)
    ref = g.eval(X) - np.outer(m, m) / q
    assert np.allclose(k.eval(X), ref, atol=1e-13)
    # empty blocks stay empty rather than failing in the rank-one update
    assert k.eval(X[:0]).shape == (0, 0)
    assert k.eval(X, X[:0]).shape == (3, 0)
    assert k.cross_with_pullback(X[:0], X)[0].shape == (0, 3)


def test_zero_mean_se_rejects_outside_unit_box():
    k = ZeroMeanSE(KernelParams(0.0, np.log([0.3])))
    with pytest.raises(DomainError):
        k.eval(np.array([[1.2]]))
    with pytest.raises(DomainError):
        k.diag(np.array([[-0.4]]))
    # X is checked before X2, so with both outside the error names X's range
    with pytest.raises(DomainError, match=r"\[1\.2, 1\.2\]"):
        k.cross_with_pullback(np.array([[1.2]]), np.array([[-0.4]]))


def _pulled_back_derivatives(pullback, shape, n_params):
    """Every dK/dtheta_p, rebuilt entry by entry by pulling back unit
    matrices (or unit vectors for a diagonal)."""
    out = np.empty((n_params,) + shape)
    for idx in np.ndindex(*shape):
        e = np.zeros(shape)
        e[idx] = 1.0
        g = pullback(e)
        assert g.shape == (n_params,)
        out[(slice(None),) + idx] = g
    return out


def _fd_kernel_grads(kern, X, X2=None, eps=1e-6):
    base = kern.get_params()
    K0, _, pullback = kern.cross_with_pullback(X, X2)
    grads = _pulled_back_derivatives(lambda G: pullback(G, None), K0.shape, kern.n_params)
    for i in range(len(base)):
        vp = base.copy()
        vp[i] += eps
        kern.set_params(vp)
        kp = kern.eval(X, X2)
        vm = base.copy()
        vm[i] -= eps
        kern.set_params(vm)
        km = kern.eval(X, X2)
        kern.set_params(base)
        fd = (kp - km) / (2 * eps)
        assert np.max(np.abs(grads[i] - fd)) < 1e-7, f"param {i}"
    assert np.allclose(kern.eval(X, X2), K0)


def test_gradients_squared_exp():
    rng = np.random.default_rng(2)
    k = SquaredExp(
        KernelParams(np.log(1.4), np.log([0.3, 0.8])), active_dims=(0, 1)
    )
    X = rng.uniform(0, 1, size=(6, 2))
    _fd_kernel_grads(k, X)
    _fd_kernel_grads(k, X, rng.uniform(0, 1, size=(4, 2)))


def test_gradients_zero_mean_se():
    rng = np.random.default_rng(3)
    k = ZeroMeanSE(KernelParams(np.log(0.8), np.log([0.22])))
    X = rng.uniform(0, 1, size=(7, 1))
    _fd_kernel_grads(k, X)
    _fd_kernel_grads(k, X, rng.uniform(0, 1, size=(5, 1)))


def test_gradients_composites():
    rng = np.random.default_rng(4)
    a = ZeroMeanSE(KernelParams(np.log(1.1), np.log([0.3])), active_dim=0)
    b = ZeroMeanSE(KernelParams(np.log(0.6), np.log([0.5])), active_dim=1)
    X = rng.uniform(0, 1, size=(6, 2))
    _fd_kernel_grads(Product([a, b]), X)
    c = Constant(np.log(2.0))
    _fd_kernel_grads(Sum([ZeroMeanSE(KernelParams(0.1, np.log([0.4]))), c]),
                     X[:, :1])


def test_diag_pullback_consistent(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 1, size=(8, 2))
    X2 = rng.uniform(0, 1, size=(3, 2))
    kerns = [
        ZeroMeanSE(KernelParams(np.log(1.3), np.log([0.35]))),
        SquaredExp(KernelParams(0.2, np.log([0.3, 0.7])), active_dims=(0, 1)),
        Sum([Constant(np.log(2.0)), ZeroMeanSE(KernelParams(0.1, np.log([0.4])))]),
        Product(
            [
                ZeroMeanSE(KernelParams(np.log(1.1), np.log([0.3])), active_dim=0),
                ZeroMeanSE(KernelParams(np.log(0.6), np.log([0.5])), active_dim=1),
            ]
        ),
        Product(
            [
                ZeroMeanSE(KernelParams(0.2, np.log([0.6])), active_dim=1),
                SquaredExp(KernelParams(-0.3, np.log([0.4, 0.9])), active_dims=(0, 1)),
                Constant(np.log(0.7)),
            ]
        ),
    ]
    G, G2, g = rng.normal(size=(8, 8)), rng.normal(size=(8, 3)), rng.normal(size=8)
    for k in kerns:
        K, d, pb = k.cross_with_pullback(X)
        pb_K, pb_d = (lambda G, pb=pb: pb(G, None)), (lambda g, pb=pb: pb(None, g))
        assert np.allclose(d, np.diag(K), atol=1e-13)
        dd = _pulled_back_derivatives(pb_d, d.shape, k.n_params)
        dK = _pulled_back_derivatives(pb_K, K.shape, k.n_params)
        for gi, Gi in zip(dd, dK):
            assert np.allclose(gi, np.diag(Gi), atol=1e-13)

        # a pullback keeps the parameters it was made with
        pb_K2 = k.cross_with_pullback(X, X2)[2]
        ref = [pb_K(G), k.cross_with_pullback(X, X2)[2](G2, None), pb_d(g)]
        theta = k.get_params()
        k.set_params(theta + 0.3)
        for a, b in zip([pb_K(G), pb_K2(G2, None), pb_d(g)], ref):
            assert np.array_equal(a, b)
        k.set_params(theta)

    # values do no derivative work: with the zero-mean kernel's derivative
    # helpers broken, every read path and the bound value still run
    def broken(*args):
        raise RuntimeError("derivative work on the value path")

    monkeypatch.setattr(kernels, "_se_mean_embedding_dlogl", broken)
    monkeypatch.setattr(kernels, "_se_double_integral_dlogl", broken)
    with pytest.raises(RuntimeError):
        kerns[0].cross_with_pullback(X)[2](None, g)
    for k in kerns:
        k.eval(X, X2)
        k.diag(X)
    g_params = [KernelParams(0.1 * i, np.log([0.3 + 0.05 * i])) for i in range(4)]
    specs = anova_specs(g_params, sigma0=1.2, m=4, ndim=2)
    data = Dataset(X, rng.normal(size=8))
    model = SparseModel(specs, Gaussian(-1.0), data)
    model.state.B = rng.normal(size=model.state.B.shape)
    assert np.isfinite(model.elbo())
    assert np.isfinite(FullModel(specs, Gaussian(-1.0), data).elbo())
    sparse.predict_marginals(specs, model.state.alpha, model.state.B, X2, True)
    grids = [s.project(X2) for s in specs]
    sparse.decompose(specs, model.state.alpha, model.state.B, grids, coupled_check=True)


def test_kernels_implement_only_the_pullback_methods():
    # a kernel writes its values and their pullback once, in
    # cross_with_pullback; Kernel derives eval and diag from it, so a subclass
    # with its own copy would be a second path to keep in step
    derived = {"eval", "diag"}
    assert derived <= set(vars(kernels.Kernel))
    classes = [
        c for c in vars(kernels).values()
        if isinstance(c, type) and issubclass(c, kernels.Kernel) and c is not kernels.Kernel
    ]
    for cls in classes:
        assert not derived & set(vars(cls)), cls.__name__
    concrete = [c for c in classes if not c.__name__.startswith("_")]
    assert {c.__name__ for c in concrete} >= {
        "Constant", "SquaredExp", "ZeroMeanSE", "Sum", "Product"
    }
    for cls in concrete:
        own = [n for n in vars(cls) if "pullback" in n or "blocks" in n]
        assert own == ["cross_with_pullback"], cls.__name__


class _Linear(kernels.Kernel):
    """``k(x, y) = v x^T y`` on its active dims, written as the one method."""

    def __init__(self, log_variance, active_dims=(0,)):
        self.log_variance = float(log_variance)
        self.active_dims = tuple(active_dims)

    def cross_with_pullback(self, X, X2=None, out=None):
        dims = list(self.active_dims)
        x = np.atleast_2d(X)[:, dims]
        v = np.exp(self.log_variance)
        d = v * np.einsum("nd,nd->n", x, x)
        x2 = x if X2 is None else np.atleast_2d(X2)[:, dims]
        K = np.multiply(v, x @ x2.T, out=out)

        def pullback(G, g):
            # every value is linear in v
            out = np.zeros(1)
            if G is not None:
                out += np.sum(G * K)
            if g is not None:
                out += g @ d
            return out

        return K, d, pullback

    def get_params(self):
        return np.array([self.log_variance])

    def set_params(self, values):
        self.log_variance = float(np.asarray(values, dtype=float)[0])

    def param_names(self):
        return ["log_variance"]


def test_a_kernel_with_only_the_one_method_works_everywhere():
    rng = np.random.default_rng(9)
    X = rng.uniform(0, 1, size=(6, 2))
    X2 = rng.uniform(0, 1, size=(4, 2))
    lin = _Linear(np.log(1.3), active_dims=(0, 1))
    _fd_kernel_grads(lin, X)
    _fd_kernel_grads(lin, X, X2)
    K, d, _ = lin.cross_with_pullback(X, X2)
    assert np.array_equal(K, lin.eval(X, X2)) and np.array_equal(d, lin.diag(X))

    # as a component, alone and inside a product, its hyper-gradient is the
    # bound's central difference
    specs = [
        ComponentSpec(lin, (0, 1), rng.uniform(0, 1, size=(4, 2))),
        ComponentSpec(
            Product([_Linear(-0.2), SquaredExp(KernelParams(0.1, np.log([0.4])), (1,))]),
            (0, 1), rng.uniform(0, 1, size=(4, 2)),
        ),
    ]
    model = SparseModel(specs, Gaussian(np.log(0.5)),
                        Dataset(rng.uniform(0, 1, size=(9, 2)), rng.normal(size=9)))
    model.state.alpha = rng.normal(size=model.state.alpha.shape)
    model.state.B = 0.7 * rng.normal(size=model.state.B.shape)
    ana = np.concatenate(model.elbo_with_grads(train_hypers=True)[1]["kernels"])
    base = np.concatenate([s.kernel.get_params() for s in specs])

    def elbo_at(theta):
        for s, t in zip(specs, np.split(theta, [lin.n_params])):
            s.kernel.set_params(t)
        return model.elbo()

    fd = central_diff(elbo_at, base)
    elbo_at(base)
    assert np.max(np.abs(ana - fd) / np.maximum(1e-6, np.abs(fd))) < 1e-5


# Kernel trees of depth <= 3 on two input columns. The magnitudes are kept
# moderate so that central differences at eps = 1e-6 resolve 1e-7 (their
# rounding error grows with the size of K).
@st.composite
def _kernel_trees(draw, depth=3):
    kinds = ["constant", "se", "zero_mean"] + (["sum", "product"] if depth > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("sum", "product"):
        parts = draw(st.lists(_kernel_trees(depth - 1), min_size=1, max_size=3))
        return Sum(parts) if kind == "sum" else Product(parts)
    log_var = draw(st.floats(-0.5, 0.5))
    if kind == "constant":
        return Constant(log_var, trainable=draw(st.booleans()))
    if kind == "se":
        dims = draw(st.sampled_from([(0,), (1,), (0, 1)]))
        log_ls = draw(st.lists(st.floats(np.log(0.2), np.log(1.5)), min_size=len(dims),
                               max_size=len(dims)))
        return SquaredExp(KernelParams(log_var, log_ls), active_dims=dims)
    log_ls = draw(st.floats(np.log(0.2), np.log(1.5)))
    return ZeroMeanSE(KernelParams(log_var, [log_ls]), active_dim=draw(st.integers(0, 1)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_kernel_trees())
def test_random_kernel_trees(tmp_path_factory, kern):
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 1, size=(5, 2))
    X2 = rng.uniform(0, 1, size=(3, 2))

    path = tmp_path_factory.mktemp("tree") / "m.addgp"
    spec = ComponentSpec(kernel=kern, active_dims=(0, 1), Z=X2)
    save_model(path, SavedModel(COUPLED, [spec], Gaussian(-1.0), np.zeros(3), np.zeros((3, 3))))
    back = load_model(path).specs[0].kernel
    assert back.param_names() == kern.param_names()
    assert np.array_equal(back.get_params(), kern.get_params())
    for a, b in ((back.eval(X), kern.eval(X)), (back.eval(X, X2), kern.eval(X, X2)),
                 (back.diag(X), kern.diag(X))):
        assert np.array_equal(a, b)

    assert np.max(np.abs(kern.diag(X) - np.diag(kern.eval(X)))) <= 1e-13
    _fd_kernel_grads(kern, X)
    _fd_kernel_grads(kern, X, X2)

    # the joint call: the values of eval and diag, and a pullback that is
    # the sum of its one-weight calls on the block and on the Gram of X
    K, d, pullback = kern.cross_with_pullback(X, X2)
    assert np.array_equal(K, kern.eval(X, X2)) and np.array_equal(d, kern.diag(X))
    G, g = rng.normal(size=K.shape), rng.normal(size=d.shape)
    ref = kern.cross_with_pullback(X, X2)[2](G, None) + kern.cross_with_pullback(X)[2](None, g)
    assert np.allclose(pullback(G, g), ref, rtol=1e-13, atol=1e-13)


def test_param_packing_round_trip():
    k = Product(
        [
            ZeroMeanSE(KernelParams(0.2, np.log([0.3])), active_dim=0),
            ZeroMeanSE(KernelParams(-0.1, np.log([0.6])), active_dim=1),
        ]
    )
    vec = k.get_params()
    assert len(vec) == k.n_params == 4
    k.set_params(vec + 0.25)
    assert np.allclose(k.get_params(), vec + 0.25)
    names = k.param_names()
    assert len(names) == 4
    assert all("lengthscale" in n or "variance" in n for n in names)


def test_constant_kernel():
    k = Constant(np.log(3.0))
    X = np.zeros((4, 1))
    assert np.allclose(k.eval(X), 3.0)
    assert np.allclose(k.diag(X), 3.0)
    frozen = Constant(np.log(3.0), trainable=False)
    assert frozen.n_params == 0
    assert k.n_params == 1


def test_anova_kernel_structure():
    rng = np.random.default_rng(6)
    g = [
        KernelParams(np.log(rng.uniform(0.5, 1.5)), np.log([rng.uniform(0.2, 0.6)]))
        for _ in range(8)
    ]
    comps = build_anova_kernel(g, sigma0=2.0, ndim=6)
    assert len(comps) == 7
    dims = [d for _, d in comps]
    assert dims[:6] == [(j,) for j in range(6)]
    assert dims[6] == (0, 1)
    # the constant offset rides on the first component
    X = np.full((3, 1), 0.5)
    first = comps[0][0].eval(X)
    alone = ZeroMeanSE(g[0], active_dim=0).eval(X)
    assert np.allclose(first - alone, 2.0, atol=1e-12)

    no_const = build_anova_kernel(g, sigma0=0.0, ndim=6)
    assert np.allclose(no_const[0][0].eval(X), alone, atol=1e-12)

    with pytest.raises(ValueError):
        build_anova_kernel(g, sigma0=-1.0, ndim=6)
    with pytest.raises(ValueError):
        build_anova_kernel(g[:5], sigma0=1.0, ndim=6)


def test_anova_interaction_is_product_of_zero_mean_parts():
    rng = np.random.default_rng(7)
    g = [KernelParams(0.0, np.log([0.4])) for _ in range(8)]
    comps = build_anova_kernel(g, sigma0=1.0, ndim=6)
    inter = comps[6][0]
    X = rng.uniform(0, 1, size=(5, 2))
    pa = ZeroMeanSE(g[6], active_dim=0).eval(X)
    pb = ZeroMeanSE(g[7], active_dim=1).eval(X)
    assert np.allclose(inter.eval(X), pa * pb, atol=1e-13)


def test_zero_mean_leaf_computes_its_inducing_side_once():
    # the Gram call at Z keeps the Z-side terms, and every row block's cross
    # call reuses them: a hyper-gradient evaluation of the README-sized anova
    # model (eight leaves) at N = 3,100, three row blocks, embeds each leaf's Z
    # once and each block's rows once, 8 + 3 * 8 calls, where recomputing the
    # Z side per block takes 8 + 3 * 16
    X, Y = sample_friedman(3100, seed=0)
    g = [KernelParams(np.log(0.5), np.array([np.log(0.3)])) for _ in range(8)]
    model = SparseModel(anova_specs(g, 1.0, m=16, ndim=6), Gaussian(0.0), Dataset(X, Y))
    model._perturb_start(0, restart=True)
    assert len(sparse._row_blocks(model.n, sparse._BOUND_ROWS)) == 3
    with mock.patch.object(kernels, "_se_embedding", wraps=kernels._se_embedding) as embed:
        model.elbo_with_grads(train_hypers=True)
    assert embed.call_count == 32

    # a read of 20,000 rows, five read blocks, by the same model as loaded
    # (fresh leaves, none keeping Z-side terms) embeds each leaf's Z once, the
    # box check's min/max rows once and each block's rows once: 8 + 8 + 5 * 8.
    # A box check that threw away the Z side would add 8 per block
    xq = sample_friedman(20000, seed=1)[0]
    assert len(sparse._row_blocks(len(xq), sparse._read_rows(16))) == 5
    loaded = anova_specs(g, 1.0, m=16, ndim=6)
    with mock.patch.object(kernels, "_se_embedding", wraps=kernels._se_embedding) as embed:
        sparse.predict_marginals(loaded, model.state.alpha, model.state.B, xq)
    assert embed.call_count == 56


def test_zero_mean_leaf_follows_its_parameters_and_inducing_inputs():
    # after an in-place edit of Z, or a parameter change, a leaf that kept its
    # Z-side terms gives the values and pullbacks of a fresh kernel, bit for bit
    rng = np.random.default_rng(9)
    X, Z = rng.uniform(0, 1, size=(11, 2)), rng.uniform(0, 1, size=(5, 2))
    G, G2, g = rng.normal(size=(5, 5)), rng.normal(size=(11, 5)), rng.normal(size=11)
    leaf = ZeroMeanSE(KernelParams(0.3, np.log([0.4])), active_dim=1)

    def calls(k):
        (kz, dz, pz), (kx, dx, px) = k.cross_with_pullback(Z), k.cross_with_pullback(X, Z)
        return [kz, dz, pz(G, dz), kx, dx, px(G2, g)]

    def same_as_fresh():
        fresh = ZeroMeanSE(KernelParams(*leaf.get_params()[:1], leaf.get_params()[1:]), 1)
        return all(np.array_equal(a, b) for a, b in zip(calls(leaf), calls(fresh), strict=True))

    assert same_as_fresh()
    Z[2, 1] = 0.5 * Z[2, 1]
    assert same_as_fresh()
    leaf.set_params(leaf.get_params() + [0.0, 0.2])
    assert same_as_fresh()
    Z[0, 0] = 0.9  # a column the leaf does not read
    assert same_as_fresh()


def _composites():
    def se(ls, dim):
        return ZeroMeanSE(KernelParams(0.3, np.log([ls])), active_dim=dim)

    return {
        "constant": Constant(np.log(0.7)),
        "sum": Sum([Constant(np.log(0.7)), se(0.4, 0)]),
        "sum3": Sum([se(0.3, 0), se(0.5, 1), Constant(-1.0)]),
        "sum1": Sum([se(0.3, 0)]),
        "product": Product([se(0.3, 0), se(0.6, 1)]),
        "product3": Product([se(0.3, 0), se(0.6, 1), Constant(0.2)]),
        "product1": Product([se(0.3, 0)]),
    }


@pytest.mark.parametrize("name", sorted(_composites()))
def test_composites_write_their_block_into_out(name):
    # the block goes into the caller's buffer with the bits of a fresh one,
    # and the pullback, which reads the parts' own blocks, is unchanged
    kern = _composites()[name]
    rng = np.random.default_rng(11)
    X, X2 = rng.uniform(0, 1, size=(7, 2)), rng.uniform(0, 1, size=(5, 2))
    G, g = rng.normal(size=(7, 5)), rng.normal(size=7)
    for x2, shape in ((X2, (7, 5)), (None, (7, 7))):
        K, d, pb = kern.cross_with_pullback(X, x2)
        buf = np.full(shape, np.nan)
        Kb, db, pbb = kern.cross_with_pullback(X, x2, out=buf)
        assert Kb is buf
        assert np.array_equal(Kb, K) and np.array_equal(db, d)
        Gs = G if x2 is not None else rng.normal(size=shape)
        assert np.array_equal(pbb(Gs, g), pb(Gs, g))
