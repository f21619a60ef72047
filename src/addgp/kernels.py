"""Covariance functions with closed-form log-hyperparameter gradients.

Besides the usual squared-exponential and constant kernels this module
provides the building blocks for additive functional decomposition on the
unit box: a univariate squared-exponential kernel recentred so that every
draw integrates to zero over [0, 1],

    s(x, y) = g(x, y) - m(x) m(y) / q,

with ``m(x) = int_0^1 g(x, t) dt`` and ``q = int_0^1 int_0^1 g(s, t) ds dt``
available in closed form through the error function. Sums and products of
such components give main effects and interactions whose posterior means
are directly interpretable as sensitivity-analysis effects.

All hyperparameters are carried in log space. A kernel implements one
method, ``cross_with_pullback(X, X2=None, out=None)``: the block K(X, X2)
(the Gram of X when X2 is None), written into ``out`` when given, the
diagonal d at the rows of X, and one pullback
``(G, g) -> [sum(G * dK/dtheta_p) + g @ dd/dtheta_p]_p`` over the
trainable log-parameters theta_p, in ``param_names`` order, to which a
caller passes None for a weight it lacks. ``Kernel`` derives ``eval`` (the
block) and ``diag`` (the diagonal, off a one-column block) from it.
Work that only the gradient needs (the derivatives of the zero-mean
kernel's integrals, a product's leave-one-out factors) is done inside the
pullback, so a caller that needs only values pays for no derivative. A
model passes in dBound/dK and gets dBound/dtheta back, so no derivative
matrix is ever stored: the SE family contracts G against K and against the
squared distances, and the mean-embedding terms of the zero-mean kernel
reduce to matrix-vector products.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dger
from scipy.special import erf

from .errors import DimensionMismatch, DomainError

_SQRT_HALF_PI = np.sqrt(np.pi / 2.0)
_UNIT_BOX_TOL = 1e-12


@dataclass
class KernelParams:
    """Log-space amplitude and lengthscale(s) of a stationary kernel."""

    log_variance: float = 0.0
    log_lengthscales: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        self.log_lengthscales = np.atleast_1d(
            np.asarray(self.log_lengthscales, dtype=float)
        ).copy()
        self.log_variance = float(self.log_variance)

    @property
    def variance(self):
        return np.exp(self.log_variance)

    @property
    def lengthscales(self):
        return np.exp(self.log_lengthscales)


class Kernel:
    """Base covariance function.

    A kernel owns its log-hyperparameters and evaluates cross-covariances
    on the columns of its inputs selected by the subclass's active
    dimensions (indices into the arrays it is handed, not into any wider
    dataset). Composite kernels concatenate the parameter vectors of their
    parts. A subclass implements ``cross_with_pullback`` and nothing else
    of the evaluation; its pullback holds every step that only the gradient
    needs and captures the parameter values it was made with.
    """

    def cross_with_pullback(self, X, X2=None, out=None):
        """The block K(X, X2) (the Gram of X for X2 None), written into
        ``out`` when given (then K is ``out``), the diagonal d at the rows of
        X and one pullback ``(G, g) -> [sum(G * dK/dtheta_p) + g @
        dd/dtheta_p]_p`` that takes None for a weight left out. The pullback
        may read K and the inputs, so neither may be modified in place before
        it is called."""
        raise NotImplementedError

    def eval(self, X, X2=None):
        """Cross-covariance K(X, X2), or the Gram matrix of X."""
        return self.cross_with_pullback(X, X2)[0]

    def diag(self, X):
        """Prior variances k(x, x) at the rows of X. Every evaluation gives a
        block with its diagonal; the one column K(X, X[:1]) keeps that O(n)."""
        return self.cross_with_pullback(X, X[:1])[1]

    def get_params(self):
        raise NotImplementedError

    def set_params(self, values):
        raise NotImplementedError

    def param_names(self):
        raise NotImplementedError

    @property
    def n_params(self):
        return len(self.param_names())

    def leaves(self):
        """Yield the leaf kernels of the composition tree."""
        yield self


def _as_2d(X):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise DimensionMismatch(f"inputs must be 2-d arrays, got shape {X.shape}")
    return X


class SquaredExp(Kernel):
    """Anisotropic squared-exponential kernel
    ``k(x, y) = v * exp(-0.5 * sum_d ((x_d - y_d) / l_d)^2)``."""

    def __init__(self, params, active_dims=(0,)):
        self.params = params
        self.active_dims = tuple(int(d) for d in active_dims)
        if len(self.params.log_lengthscales) != len(self.active_dims):
            raise DimensionMismatch(
                "need one lengthscale per active dimension "
                f"({len(self.params.log_lengthscales)} vs {len(self.active_dims)})"
            )

    def cross_with_pullback(self, X, X2=None, out=None):
        X = _as_2d(X)
        X2 = X if X2 is None else _as_2d(X2)
        v, dims = self.params.variance, list(self.active_dims)
        # (n, m, d) array of per-dimension scaled differences
        diff = (X[:, None, dims] - X2[None, :, dims]) / self.params.lengthscales
        sq = diff * diff
        K = np.multiply(v, np.exp(-0.5 * np.sum(sq, axis=2)), out=out)
        nd = len(self.active_dims)

        def pullback(G, g):
            # dK/dlog v = K, dK/dlog l_j = K * sq_j; the diagonal is v
            out = np.zeros(1 + nd)
            if G is not None:
                w = G * K
                out[0] += w.sum()
                out[1:] += np.einsum("nm,nmd->d", w, sq)
            if g is not None:
                out[0] += v * np.sum(g)
            return out

        return K, np.full(X.shape[0], v), pullback

    def get_params(self):
        return np.concatenate(
            ([self.params.log_variance], self.params.log_lengthscales)
        )

    def set_params(self, values):
        values = np.asarray(values, dtype=float)
        self.params.log_variance = float(values[0])
        self.params.log_lengthscales = values[1:].copy()

    def param_names(self):
        return ["log_variance"] + [
            f"log_lengthscale[{d}]" for d in range(len(self.active_dims))
        ]


class Constant(Kernel):
    """Constant covariance ``k(x, y) = v``; optionally frozen."""

    def __init__(self, log_variance=0.0, trainable=True):
        self.log_variance = float(log_variance)
        self.trainable = bool(trainable)
        self.active_dims = ()

    @property
    def variance(self):
        return np.exp(self.log_variance)

    def cross_with_pullback(self, X, X2=None, out=None):
        X = _as_2d(X)
        v, trainable = self.variance, self.trainable
        n2 = X.shape[0] if X2 is None else _as_2d(X2).shape[0]
        K = np.empty((X.shape[0], n2)) if out is None else out
        K.fill(v)

        def pullback(G, g):
            if not trainable:
                return np.zeros(0)
            # dK/dlog v = K and dd/dlog v = d, the constant v everywhere; one
            # term per weight, as v * (sum(G) + sum(g)) rounds differently
            out = np.zeros(1)
            for w in (G, g):
                if w is not None:
                    out += v * np.sum(w)
            return out

        return K, np.full(X.shape[0], v), pullback

    def get_params(self):
        return np.array([self.log_variance]) if self.trainable else np.zeros(0)

    def set_params(self, values):
        if self.trainable:
            self.log_variance = float(np.asarray(values, dtype=float)[0])
        elif len(np.atleast_1d(values)):
            raise DimensionMismatch("constant kernel is frozen, expected no params")

    def param_names(self):
        return ["log_variance"] if self.trainable else []


def _scalars(params):
    """(v, l) of a univariate SE kernel."""
    return params.variance, float(params.lengthscales[0])


def se_mean_embedding(params, x):
    """``int_0^1 g(x, t) dt`` for the univariate squared-exponential g.

    Closed form: ``v * l * sqrt(pi/2) * (erf((1-x)/(sqrt(2) l)) + erf(x/(sqrt(2) l)))``.
    """
    return _se_embedding(*_scalars(params), np.asarray(x, dtype=float))[0]


def _se_embedding(v, ell, x):
    """(m, u, w): the mean embedding at x and the scaled columns
    u = (1 - x)/(sqrt(2) l), w = x/(sqrt(2) l) that its derivative reuses."""
    u = (1.0 - x) / (np.sqrt(2.0) * ell)
    w = x / (np.sqrt(2.0) * ell)
    return v * ell * _SQRT_HALF_PI * (erf(u) + erf(w)), u, w


def _se_mean_embedding_dlogl(v, ell, m, u, w):
    """Derivative w.r.t. log-lengthscale of the mean embedding ``m``, from
    the scaled columns of ``_se_embedding``."""
    # d/d log l of erf terms: each erf(a/l) contributes -(2/sqrt(pi)) a/l e^{-(a/l)^2}
    return m - v * np.sqrt(2.0) * ell * (u * np.exp(-u * u) + w * np.exp(-w * w))


def se_double_integral(params):
    """``int_0^1 int_0^1 g(s, t) ds dt`` for the univariate SE kernel g.

    Closed form: ``2 v (l sqrt(pi/2) erf(1/(sqrt(2) l)) - l^2 (1 - e^{-1/(2 l^2)}))``.
    Always positive; tends to v as l grows (the kernel flattens to a
    constant) and to 0 as l -> 0.
    """
    return _se_double_integral(*_scalars(params))


def _se_double_integral(v, ell):
    a = 1.0 / (np.sqrt(2.0) * ell)
    # -expm1 keeps l^2 * (1 - e^{-a^2}) accurate for large lengthscales
    return 2.0 * v * (ell * _SQRT_HALF_PI * erf(a) - ell * ell * (-np.expm1(-a * a)))


def _se_double_integral_dlogl(v, ell):
    """Derivative of the double integral w.r.t. log-lengthscale."""
    a = 1.0 / (np.sqrt(2.0) * ell)
    # The chain-rule terms through a cancel pairwise, leaving:
    return 2.0 * v * ell * (_SQRT_HALF_PI * erf(a) - 2.0 * ell * (-np.expm1(-a * a)))


def _sqdist(x, y, out=None):
    """``(x_i - y_j)^2`` for all pairs of two vectors, as an (n, m) block.

    The differences come from the rank-two product ``[x, 1] [1, -y]^T``.
    Both of its terms are exact, so every entry is ``x_i - y_j`` rounded
    once, bit for bit what a broadcast subtraction gives; but the BLAS
    walks the long axis, where the broadcast loops over the short one.
    """
    a = np.ones((len(x), 2))
    a[:, 0] = x
    b = np.ones((2, len(y)))
    np.negative(y, out=b[1])
    d = np.matmul(a, b, out=out)
    return np.square(d, out=d)


def _minus_outer(a, x, y):
    """``a - x y^T``, updating the C-ordered array ``a`` in place through a
    BLAS rank-one update of its Fortran-ordered transpose."""
    if a.size == 0:  # the BLAS wrapper rejects empty operands
        return a
    return dger(-1.0, y, x, a=a.T, overwrite_a=True).T


class ZeroMeanSE(Kernel):
    """Univariate squared-exponential kernel recentred to zero mean on [0, 1].

    ``s(x, y) = g(x, y) - m(x) m(y) / q`` with g the SE kernel, m its mean
    embedding over [0, 1] and q its double integral. Draws from s integrate
    to zero over the unit interval in each argument, which pins down the
    additive decomposition. Inputs outside [0, 1] (beyond 1e-12) raise
    DomainError.
    """

    def __init__(self, params, active_dim=0):
        if len(params.log_lengthscales) != 1:
            raise DimensionMismatch("zero-mean component is univariate")
        self.params = params
        self.active_dim = int(active_dim)
        self.active_dims = (self.active_dim,)
        self._z = None  # (key, terms) kept by ``_inducing_terms``

    def _column(self, X):
        x = _as_2d(X)[:, self.active_dim]
        # written so that NaN, which fails every comparison, fails the check
        if x.size and not (x.min() >= -_UNIT_BOX_TOL and x.max() <= 1.0 + _UNIT_BOX_TOL):
            raise DomainError(
                "inputs must lie in [0, 1] for zero-mean components "
                f"(observed range [{x.min():.6g}, {x.max():.6g}])"
            )
        return x

    def _inducing_terms(self, X2, v, ell):
        """The column of X2 (Z, or X for a Gram), checked and embedded once per
        parameter values and column bits: its embedding "e", scaled column "ys"
        and the double integral "q"; the first pullback adds "dmy" and "dq"."""
        key = (v, ell, _as_2d(X2)[:, self.active_dim].tobytes())
        if self._z is None or self._z[0] != key:
            y = self._column(X2)
            self._z = key, {"e": _se_embedding(v, ell, y), "ys": y * (np.sqrt(0.5) / ell),
                            "q": _se_double_integral(v, ell)}
        return self._z[1]

    def cross_with_pullback(self, X, X2=None, out=None):
        # K and the diagonal share one mean embedding of X; the inducing side,
        # all of a Gram, comes from the kept terms of its column
        v, ell = _scalars(self.params)
        gram = X2 is None
        x = None if gram else self._column(X)
        z = self._inducing_terms(X if gram else X2, v, ell)
        ex = z["e"] if gram else _se_embedding(v, ell, x)
        mx, my, ys, q = ex[0], z["e"][0], z["ys"], z["q"]
        d = v - mx * mx / q
        xs = ys if gram else x * (np.sqrt(0.5) / ell)
        # v exp(-t) - mx my^T / q with t the block of halved squared
        # scaled distances, built in place on one (n, m) array
        K = _sqdist(xs, ys, out)
        np.subtract(self.params.log_variance, K, out=K)
        np.exp(K, out=K)
        K = _minus_outer(K, mx, my / q)

        def pullback(G, g):
            # every term is linear in v, so d/dlog v of each part is the part
            if "dq" not in z:
                z.update(dmy=_se_mean_embedding_dlogl(v, ell, *z["e"]),
                         dq=_se_double_integral_dlogl(v, ell))
            dmx = z["dmy"] if gram else _se_mean_embedding_dlogl(v, ell, *ex)
            dq = z["dq"]
            out = np.zeros(2)
            if G is not None:
                # dK/dlog l = 2 g t - (dmx my' + mx dmy')/q + mx my' dq/q^2
                # with the SE part g = K + mx my'/q. Only K is kept between
                # the calls: t is rebuilt here, so
                # sum(G g t) = sum(G t K) + mx'(G t)my/q.
                gm = G @ np.column_stack((my, z["dmy"]))
                gt = _sqdist(xs, ys)
                gt *= G
                sum_gtg = np.einsum("ij,ij->", gt, K) + mx @ (gt @ my) / q
                dl = (
                    2.0 * sum_gtg
                    - (dmx @ gm[:, 0] + mx @ gm[:, 1]) / q
                    + (mx @ gm[:, 0]) * (dq / (q * q))
                )
                out += [np.einsum("ij,ij->", G, K), dl]
            if g is not None:
                dl = -2.0 * mx * dmx / q + mx * mx * (dq / (q * q))
                out += [g @ d, g @ dl]
            return out

        return K, d, pullback

    def get_params(self):
        return np.array(
            [self.params.log_variance, self.params.log_lengthscales[0]]
        )

    def set_params(self, values):
        values = np.asarray(values, dtype=float)
        self.params.log_variance = float(values[0])
        self.params.log_lengthscales = np.array([float(values[1])])

    def param_names(self):
        return ["log_variance", "log_lengthscale"]


class _Composite(Kernel):
    def __init__(self, parts):
        self.parts = list(parts)
        if not self.parts:
            raise DimensionMismatch("composite kernel needs at least one part")
        dims = set()
        for p in self.parts:
            dims.update(p.active_dims)
        self.active_dims = tuple(sorted(dims))

    def leaves(self):
        for p in self.parts:
            yield from p.leaves()

    def get_params(self):
        vecs = [p.get_params() for p in self.parts]
        return np.concatenate(vecs) if vecs else np.zeros(0)

    def set_params(self, values):
        values = np.asarray(values, dtype=float)
        i = 0
        for p in self.parts:
            n = p.n_params
            p.set_params(values[i : i + n])
            i += n
        if i != len(values):
            raise DimensionMismatch(
                f"expected {i} kernel parameters, got {len(values)}"
            )

    def param_names(self):
        names = []
        for j, p in enumerate(self.parts):
            names.extend(f"part{j}.{n}" for n in p.param_names())
        return names


class Sum(_Composite):
    """Sum of kernels; parameter vector is the concatenation of the parts'.
    Every part sees the same weights."""

    def cross_with_pullback(self, X, X2=None, out=None):
        Ks, ds, pbs = zip(*(p.cross_with_pullback(X, X2) for p in self.parts))

        def pullback(G, g):
            return np.concatenate([pb(G, g) for pb in pbs])

        return _fold(np.add, Ks, out), sum(ds[1:], ds[0]), pullback


def _fold(op, blocks, out):
    """``op`` over the parts' blocks from the left, into ``out`` when given (a
    lone block is copied there), never into a block, which its pullback reads."""
    if out is not None and len(blocks) == 1:
        out[...] = blocks[0]
        return out
    return functools.reduce(lambda acc, k: op(acc, k, out=out), blocks)


def _mul(a, b):
    """Elementwise product with None as the identity."""
    if a is None:
        return b
    return a if b is None else a * b


class Product(_Composite):
    """Elementwise product of kernels. Part i sees each weight times the
    product of the other parts' values, formed from the prefix products the
    value is built from and, in the pullback, the suffix products, so that
    no entry is ever divided out."""

    def cross_with_pullback(self, X, X2=None, out=None):
        Ks, ds, pbs = zip(*(p.cross_with_pullback(X, X2) for p in self.parts))
        values = (Ks, ds)  # every part's K and d
        prefixes = [[None, *itertools.accumulate(vals[:-1], _mul)] for vals in values]

        def pullback(G, g):
            out = [None] * len(pbs)
            suffixes = [None, None]
            for i in range(len(pbs) - 1, -1, -1):
                rests = [_mul(pre[i], suf) for pre, suf in zip(prefixes, suffixes)]
                out[i] = pbs[i](*(w if w is None or r is None else w * r
                                  for w, r in zip((G, g), rests)))
                if i:
                    suffixes = [_mul(vals[i], suf) for vals, suf in zip(values, suffixes)]
            return np.concatenate(out)

        last = Ks[-1:] if len(Ks) == 1 else (prefixes[0][-1], Ks[-1])
        return _fold(np.multiply, last, out), _mul(prefixes[1][-1], ds[-1]), pullback


def build_anova_kernel(g_params, sigma0, ndim=6, learn_sigma0=True):
    """Additive component kernels for main effects plus one pairwise
    interaction on the unit box.

    ``g_params`` supplies one univariate SE base kernel per input dimension
    plus two extra for the interaction factors, ``ndim + 2`` in total. The
    constant offset ``sigma0`` is folded into the first component (so the
    number of additive components stays ``ndim + 1``); ``sigma0 == 0`` omits
    it. Returns a list of ``(kernel, global_dims)`` pairs: each kernel's
    active dims are local to the projected columns listed in
    ``global_dims``.
    """
    g_params = list(g_params)
    if len(g_params) != ndim + 2:
        raise DimensionMismatch(
            f"need {ndim + 2} base kernels for {ndim} inputs, got {len(g_params)}"
        )
    if sigma0 < 0:
        raise ValueError("sigma0 must be nonnegative")
    first = ZeroMeanSE(g_params[0], active_dim=0)
    if sigma0 > 0:
        first = Sum([Constant(np.log(sigma0), trainable=learn_sigma0), first])
    comps = [(first, (0,))]
    for i in range(1, ndim):
        comps.append((ZeroMeanSE(g_params[i], active_dim=0), (i,)))
    inter = Product(
        [
            ZeroMeanSE(g_params[ndim], active_dim=0),
            ZeroMeanSE(g_params[ndim + 1], active_dim=1),
        ]
    )
    comps.append((inter, (0, 1)))
    return comps
