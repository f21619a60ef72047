"""Sparse variational inference with posterior coupling across components.

Each additive component c gets M inducing variables U_c at inputs Z_c. The
joint posterior over U = (U_1, ..., U_C) is parameterized in precision
space as

    Sigma_U^{-1} = K_UU^{-1} + B B^T,    q(U) = N(K_UU alpha, Sigma_U),

with B in R^{MC x R} (default R = M). The off-diagonal blocks of B B^T carry
the anti-correlations between components that the additive likelihood
induces. The mean-field baseline q(U) = prod_c q(U_c) (structure
"meanfield") is this posterior for each component on its own, stored as
the diagonal M x M blocks of an (MC x MC) B. The dense reference model
(``full.FullModel``) is Z_c = X with the tied diagonal B_c = Lambda.

Every term reduces to the R x R capacitance A = I_R + sum_c B_c^T K_{U_c} B_c:

    KL[q || p] = 1/2 ( log|A| + sum_c alpha_c^T K_{U_c} alpha_c
                       - tr(A^{-1} (A - I_R)) )
    mu_sum     = sum_c K_{f_c U_c} alpha_c
    var_sum    = sum_c k_c(x, x) - diag(J A^{-1} J^T),
                 J = sum_c K_{f_c U_c} B_c,

so a sparse bound evaluation costs O(C M^3 + N C M R) after the kernel rows,
with no N x N matrix. ``Posterior``, the only place the coupling enters,
factors A = L L^T and whitens B~ = B L^{-T} once: at any rows one routine
gives mu_sum and t = J L^{-T}, and diag(J A^{-1} J^T) = rowsum(t^2) for the
bound and every read alike, which does not cancel as forms in A^{-1} do; the
dense model's B~ = Lambda L^{-T} and L^{-1} are triangular and multiplied as
such (``linalg.tri_mul``), its N x N steps written over buffers the model
holds; as Lambda J P = I - P, it forms neither P = A^{-1} nor P^2. It also
keeps the bound's gradient sums, so it alone knows B from lambda and
whitened sums from final ones. ``AdditiveModel``
holds the rest for all three structures: the row walk, the likelihood and
the kernel pullbacks. The bound and every read build one ``Posterior``. A
mean-field q(U) is C independent blocks, one per component: its
``Posterior`` takes the (C, M, M) stack of B's diagonal blocks, factors C
capacitances of M x M, and reads each block of training rows once for all
of them with batched (C, rows, M) products, where a coupled B has one
(rows, C M) product; the reads stack B the same way wherever it is zero
off its diagonal M x M blocks, which is exact. The bound walks the training
rows in blocks of ``_BOUND_ROWS``; the reads, of ``_read_rows(M)`` (a dense
read at N >= 512 holds 128 x N entries per array, not 4096 x N). With fixed
hyperparameters a block's cross-covariances F are a row slice of one cached
(N, C M) block; with their gradients each component evaluates and pulls
back its F columns and prior diagonal in one joint call
(``Kernel.cross_with_pullback``), which also gives the Grams. F B~ and F^T u
run in row pieces within OpenBLAS's small-matrix path (``_SMALL_GEMM``).
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg.blas import dger

from . import model as _model
from .errors import DimensionMismatch, DomainError
from .linalg import cholesky, inverse_from_tri_inverse, logdet_from_chol, sym_square
from .linalg import tri_inverse, tri_mul, tri_solve
# importable by name for instrumentation that wraps the linear algebra per module
from .linalg import solve_from_chol  # noqa: F401
from .optimize import TrainConfig, bounds_for_names, run_two_phase

VAR_CLAMP = 1e-12
# rows per block of the reads (at most) and of the bound; multiples of 8, the
# row unroll of the BLAS kernels, so blocked reads keep the bits of one pass
_ROWS = 4096
_BOUND_ROWS = 1536
# cross-block entries per read block, and its fewest rows (below, dense L^{-T} products slow)
_ENTRIES, _MIN_ROWS = 16 * _ROWS, 128
# multiply-adds up to which OpenBLAS multiplies small matrices without packing them
_SMALL_GEMM = 10**6


def _row_blocks(n, size):
    """Slices of ``size`` rows over n rows; a lone last row joins the block
    before it, as a one-row product takes BLAS's vector path and rounds
    differently."""
    if n <= size + 1:
        return [slice(0, n)]
    edges = [*range(0, n - 1, size), n]
    return list(map(slice, edges, edges[1:]))


def _read_rows(m):
    """Rows per block of a read of m-wide cross blocks: ``_ENTRIES`` // m, a
    multiple of 8 within [``_MIN_ROWS``, ``_ROWS``], so 4096 up to m = 16."""
    return min(_ROWS, max(_MIN_ROWS, _ENTRIES // m // 8 * 8))


def _piece_rows(k, n):
    """Rows per piece of a product of a (rows, k) block with n columns, or of
    its transpose with them, that stays within ``_SMALL_GEMM``: a multiple of 8."""
    return max(8, _SMALL_GEMM // (k * n) // 8 * 8)


def _skinny(f, b, transpose=False, out=None):
    """f @ b (f^T b with ``transpose``) in every group of a (G, rows, k) block
    f and a skinny b, written into ``out`` (G, rows, n) without ``transpose``,
    in pieces of ``_piece_rows`` rows once a group's product would pass ``_SMALL_GEMM``."""
    k, n, rows = f.shape[2], b.shape[2], f.shape[1]
    whole = rows * k * n <= _SMALL_GEMM
    pieces = [slice(0, rows)] if whole else _row_blocks(rows, _piece_rows(k, n))
    if transpose:
        return functools.reduce(np.add, (f[:, p].transpose(0, 2, 1) @ b[:, p] for p in pieces))
    for p in pieces:
        np.matmul(f[:, p], b, out=out[:, p])
    return out


class Posterior:
    """The posterior q(U), factored and whitened once.

    ``alpha`` is (C M,) or (C, M) and ``ku`` the prior Grams K_c(Z_c, Z_c)
    when the caller has them. ``coupling`` is B (M C x R), the (C, M, M)
    stack of a mean-field B's diagonal blocks, or the vector lambda, which
    stands for B_c = diag(lambda) for every c with Z_c the training inputs
    (the dense model; ``ksum`` is then the Grams' sum, which a read adds up
    as it evaluates them, keeping none). A mean-field q(U) is C blocks of one
    component each: C capacitances of M x M, factored one by one, and
    batched (C, rows, M) products where B has one (rows, M C) product. ``mu_t``
    serves the reads; the bound takes ``kl``, then per row block ``read``,
    ``accumulate`` and ``kernel_weights``, and at last ``gradients``. Lambda's
    N x N steps go, in that order, into ``work``: (A, L, L^{-1}, Z = sqrt(-Gs)
    z, Y), (t, z, sym(Y), Omega, V, S, J), -Psi = Z^T Z, (B~, Y^2, a Gram
    weight) and u, each written over what is no longer needed, Y = Lambda z
    with hyperparameter gradients only; the dense model holds them, and a
    read, passing None, gets new arrays. Its bound reads all N rows in one block.
    """

    def __init__(self, specs, alpha, coupling, ku=None, ksum=None, work=(None,) * 5):
        self.specs, self.alphas = specs, np.asarray(alpha, dtype=float).reshape(len(specs), -1)
        m = specs[0].m
        # the bound's row block (f, t, u, rows) and (t, u) buffers; running F^T
        # dE/dmu, -2 F^T U, Psi (lambda's: -Psi, then diag(J Omega))
        self._work, self._block, self._bufs, self._sums = work, None, None, None
        coupling = np.asarray(coupling, dtype=float)
        # G, the blocks of q(U): one, or C of one component each for mean-field
        self._g = len(coupling) if coupling.ndim == 3 else 1
        grams = (s.kernel.eval(s.Z) for s in specs)
        self.ku = ku if ku is not None else None if coupling.ndim == 1 else list(grams)
        if coupling.ndim == 1:
            # tied B_c: only sum_c K_c B_c = Ksum Lambda (= J at X) enters
            self._lam, self._b = coupling, None
            self._ksum = ksum if ksum is not None else functools.reduce(
                lambda acc, k: np.add(acc, k, out=acc), grams)  # a read keeps no Gram
            # A^T, whose transpose is A in the Fortran order LAPACK factors in place
            a = np.multiply(self._ksum.T, coupling[:, None], out=work[0], order="C")
            a *= coupling
            a.reshape(-1)[:: len(a) + 1] += 1.0
            self.L = cholesky(a.T, overwrite=True)
            self._logdet = logdet_from_chol(self.L)  # L^{-1} overwrites L
            # B~ = Lambda L^{-T}, one upper triangular (N, N)
            self._bt = np.multiply(self.linv, coupling, out=work[3]).T
            return
        self._lam = None
        self._b = coupling.reshape(len(specs), m, -1)
        self._kb = np.matmul(self.ku, self._b)  # K_c B_c, (C, M, R)
        # one capacitance per block of q(U), (G, R, R)
        b = self._groups(self._b)
        a = np.matmul(b.transpose(0, 2, 1), self._groups(self._kb))
        a.reshape(len(a), -1)[:, :: a.shape[-1] + 1] += 1.0
        self.L = [cholesky(x) for x in a]
        # B~_c = B_c L^{-T}, (C, M, R)
        self._bt = np.stack([tri_solve(l, x.T).T for l, x in zip(self.L, b)]).reshape(self._b.shape)

    def _groups(self, x):
        """(C, M, k) as (G, C M / G, k): the rows of each block of q(U)."""
        return x.reshape(self._g, -1, x.shape[-1])

    def _each(self, x):
        """A (G, ...) array of the blocks of q(U) as one entry per component."""
        return np.broadcast_to(x, (len(self.specs), *x.shape[1:]))

    @functools.cached_property
    def linv(self):
        """L^{-1}: lambda's B~ (written over L), and the bound's last-block sums and P."""
        if self._b is None:
            return tri_inverse(self.L, overwrite=True)
        return np.stack([tri_inverse(l) for l in self.L])

    @functools.cached_property
    def ka(self):
        """K_c alpha_c for every component, (C, M)."""
        return np.matmul(self.ku, self.alphas[:, :, None])[:, :, 0]

    @functools.cached_property
    def _omega(self):
        """Omega = P - P^2, P = A^{-1}, for B (lambda's is formed in ``kernel_weights``)."""
        p = np.stack([inverse_from_tri_inverse(x) for x in self.linv])
        return p - p @ p

    def kl(self):
        """KL[q(U) || p(U)] = 1/2 (log|A| + sum_c alpha_c^T K_c alpha_c - T), with
        T = tr(A^{-1} (A - I)) = sum_c <B~_c, K_c B~_c> (lambda: R - ||L^{-1}||_F^2)."""
        if self._b is None:
            trace, logdet = len(self.linv) - float(np.vdot(self.linv, self.linv)), self._logdet
        else:
            trace = float(np.vdot(self._bt, np.matmul(self.ku, self._bt)))
            logdet = sum(logdet_from_chol(l) for l in self.L)
        quad = float(np.sum(self.alphas * self.ka))
        return 0.5 * (logdet + quad - trace)

    def mu_t(self, f, ci, out=None):
        """(mu, t) = (F_ci alpha_ci, F_ci B~_ci) at a block of rows from its
        cross block; lambda's B~_c are all one, so there it also takes the
        pair (mu, sum_c F_c) for ``ci`` None and t is one ``tri_mul``,
        written over ``out`` (which may be F) when given."""
        if self._b is None:
            mu, f = f if ci is None else (f @ self.alphas[ci], f)
            return mu, tri_mul(f, self._bt, lower=False, out=out)
        return f @ self.alphas[ci], f @ self._bt[ci]

    def read(self, f, rows):
        """(mu, rowsum(t^2)) at the training rows ``rows`` from their cross block
        f over all components, or None for lambda's, which are its Grams; the
        block keeps f, t and its u for ``accumulate``. B's t is (G, rows, R),
        each block of q(U) in one product with its columns of f, and t and u
        are written over the last block's."""
        if f is None:
            f = self.ka.sum(axis=0)[rows], self._ksum[rows]
            mu, t = self.mu_t(f, None, out=self._work[1])
            self._block = None, t, self._work[4], rows
            return mu, _rowsq(t)
        if self._bufs is None or self._bufs[0].shape[1] < len(f):
            shape = (self._g, len(f), self._bt.shape[-1])
            self._bufs = np.empty(shape), np.empty((*shape[:2], 1 + shape[2]))
        t, u = (x[:, : len(f)] for x in self._bufs)
        groups = f.reshape(len(f), len(t), -1).transpose(1, 0, 2)
        _skinny(groups, self._groups(self._bt), out=t)
        self._block = groups, t, u, rows
        return f @ self.alphas.ravel(), np.einsum("gnr,gnr->n", t, t)

    def accumulate(self, gmu, gs, last):
        """Add the read block's shares of F_c^T dE/dmu, -2 F^T U and Psi,
        U = Gs t L^{-1}, and return its u = [dE/dmu, Gs z]: for B, z = t and
        the last two sums stay whitened until the ``last`` block, which
        takes them to -2 (F^T Gs t) L^{-1} and L^{-T} (t^T Gs t) L^{-1};
        lambda needs U for -2 diag(Ksum U), so z = t L^{-1} = J P. As
        Lambda z = I - P, lambda's fourth sum is diag(J Omega) = diag(z Lambda z),
        and it keeps -Psi = Z^T Z, Z = sqrt(-Gs) z (Gs <= 0) over L^{-1}."""
        (f, t, u, rows), self._block = self._block, None
        lam = self._b is None
        z = tri_mul(t, self.linv, out=t) if lam else t
        u[..., 0] = gmu
        # B's Gs spread over R columns: numpy multiplies a broadcast column in R-wide runs
        gsz = gs[:, None] if lam else np.repeat(gs[:, None], z.shape[-1], 1)
        np.multiply(gsz, z, out=u[..., 1:])
        if lam:
            ksum_u = np.einsum("ij,ij->j", self._ksum[rows], u[:, 1:])
            zs = np.multiply(z, np.sqrt(-gs)[:, None], out=self._work[0])
            new = [np.matmul(self.ku[:, :, rows], gmu), -2.0 * ksum_u,
                   sym_square(zs.T, out=self._work[2]), np.einsum("ij,j,ji->i", z, self._lam, z)]
        else:
            ftu = _skinny(f, u, transpose=True).reshape(*self._kb.shape[:2], -1)
            new = [ftu[:, :, 0], ftu[:, :, 1:], z.transpose(0, 2, 1) @ u[..., 1:]]
        sums = self._sums = new if self._sums is None else [a + b for a, b in zip(self._sums, new)]
        if last and not lam:
            linv = self.linv
            sums[1:] = -2.0 * (sums[1] @ linv), linv.transpose(0, 2, 1) @ sums[2] @ linv
        return u

    def gradients(self):
        """(dBound/dalpha, dBound/dcoupling) from the sums of every row block
        and W = 2 Psi - Omega: dalpha = F^T dE/dmu - K alpha, dB = -2 F^T U
        + K B W, dlambda = -2 diag(Ksum U) + diag(J W), where diag(J W) =
        -2 rowsum(J o Z^T Z) - diag(J Omega) needs no Omega."""
        fg, ftu, psi, *djo = self._sums
        if self._b is None:
            j = np.multiply(self._ksum, self._lam, out=self._work[1])  # over S
            return fg - self.ka, ftu - 2.0 * np.einsum("ij,ij->i", j, psi) - djo[0]
        return fg - self.ka, ftu + np.matmul(self._kb, 2.0 * psi - self._omega)

    def kernel_weights(self, u, last):
        """Per component, (dBound/dK_c, dBound/dF_c) = (B_c V B_c^T - alpha_c
        alpha_c^T / 2, dE/dmu alpha_c^T - 2 U B_c^T) from a row block's u and,
        in the ``last`` block, V = Psi - Omega / 2 (else no Gram weight), both
        of the component's block of q(U).
        Lambda's cross blocks are its Grams: (None, S + (dE/dmu - alpha_c / 2)
        alpha_c^T) with S = (Lambda V - 2 U) Lambda formed once, as
        2 ((Lambda / 2) V - U) Lambda to the bit, each weight over the last.
        There Omega = P - P^2 = Y - Y^2 from Y = I - P = Lambda z, which is
        symmetrized first: its rounding is not, and Y Y^T would square that."""
        if self._b is None:
            y = np.multiply(self._work[1], self._lam[:, None], out=self._work[0])  # z there
            y = np.multiply(np.add(y, y.T, out=self._work[1]), 0.5, out=self._work[1])
            s = np.subtract(y, sym_square(y, out=self._work[3]), out=y)  # Omega, V, then S
            s *= -0.5
            s, w = np.subtract(s, self._sums[2], out=s), self._work[3]
            s *= 0.5 * self._lam[:, None]
            s -= u[:, 1:]
            s *= 2.0 * self._lam
            for al in self.alphas:  # BLAS adds al (dE/dmu - al / 2)^T to w^T in place
                np.copyto(w, s)
                yield None, dger(1.0, al, u[:, 0] - 0.5 * al, a=w.T, overwrite_a=True).T
            return
        vs = self._each(self._sums[2] - 0.5 * self._omega) if last else [None] * len(self.specs)
        for b, bt, al, uc, v in zip(self._b, self._bt, self.alphas, self._each(u), vs):
            gk = None if v is None else b @ v @ b.T - 0.5 * np.outer(al, al)
            yield gk, uc @ np.vstack((al, -2.0 * bt.T))

    def at(self, Xq, include_components=False):
        """Marginals of the sum at the query points Xq (full input width) and,
        with ``include_components``, each component's (mean, variance). Each
        kernel checks its domain at the query's column-wise min and max, so a
        bad input fails as in one pass. Then, ``_read_rows(M)`` rows at a time
        (a dense read at N >= 512 holds 128 x N per array), one kernel call
        per component gives F_c and its prior diagonal and ``mu_t`` (mu_c,
        t_c), which add up to the bits of one pass; a block of q(U) adds its
        t_c, and mean-field its components' variances; lambda without
        components whitens sum_c F_c once."""
        xps = [s.project(Xq) for s in self.specs]
        n = len(xps[0])
        for s, xp in zip(self.specs, xps if n else ()):
            s.kernel.diag(np.stack((xp.min(axis=0), xp.max(axis=0))))
        summed = self._b is None and not include_components
        apart = self._g > 1
        # rows: summed mean and variance, then each component's pair
        out = np.empty((2 + 2 * len(self.specs) * include_components, n))
        for rows in _row_blocks(n, _read_rows(self.specs[0].m)):
            mu, d, t = out[0, rows], 0.0, None
            mu[...] = 0.0
            for ci, (s, xp) in enumerate(zip(self.specs, xps)):
                fc, dc = s.kernel.cross_with_pullback(xp[rows], s.Z)[:2]
                mc, tc = (fc @ self.alphas[ci], fc) if summed else self.mu_t(fc, ci, out=fc)
                if include_components:
                    out[2 + 2 * ci, rows], out[3 + 2 * ci, rows] = mc, dc - _rowsq(tc)
                mu += mc
                if apart:
                    d = d + (dc - _rowsq(tc))
                    continue
                d = d + dc
                t = tc if t is None else np.add(t, tc, out=t)
            t = self.mu_t((mu, t), None, out=t)[1] if summed else t
            out[1, rows] = d if apart else d - _rowsq(t)
        per = list(zip(out[2::2], out[3::2])) if include_components else None
        return _model.PredictorMarginals(out[0], out[1], per)


def _rowsq(t):
    """rowsum(t^2): the variance downdate diag(J A^{-1} J^T) for t = J L^{-T}."""
    return np.einsum("nr,nr->n", t, t)


class AdditiveModel:
    """What the sparse and the dense model share: validation, the data
    projections, the start state, the hyperparameter-keyed cache of prior
    blocks, marginals through ``Posterior``, the bound's row walk (with the
    likelihood and the kernel pullbacks) and two-phase training with restarts.

    A subclass names its coupling field in the state (``coupling``, "B" or
    "lam"), supplies ``_prior_blocks`` and ``_perturb_start``, may override
    ``_with_inducing`` (its Z) and ``_row_slices``, and splits ``_blocks``
    where q(U) factorizes: the optimizer sees only those views into the
    coupling, and ``Posterior`` their stack.
    ``_prior_blocks(pullbacks)`` returns ``(ku, ksum, rows)``: the prior
    Grams, their sum for lambda (else None) and a function of a slice of
    training rows that gives ``(f, d0, pullbacks)``: the cross block (None
    for lambda), the summed prior diagonal and, with ``pullbacks``, one
    function per component that maps the weights on its Gram (None but in
    the last row block, and for lambda, whose cross blocks are its Grams),
    cross block and diagonal to its gradient.
    """

    coupling = None
    _work = (None,) * 5  # lambda's N x N buffers, held by the dense model

    def __init__(self, specs, likelihood, dataset, state, structure, r=None):
        if not specs:
            raise DimensionMismatch("model has no components")
        self.specs, self._xp = [], []
        # each spec reads its data columns; its kernel checks its domain there and at Z
        for ci, s in enumerate(specs):
            try:
                xp = s.project(dataset.X)
                s = self._with_inducing(s, xp)
                s.kernel.diag(xp)
                s.kernel.diag(s.Z)
            except (DimensionMismatch, DomainError) as exc:
                raise type(exc)(f"component {ci}: {exc}") from None
            self.specs.append(s)
            self._xp.append(xp)
        ms = [s.m for s in self.specs]
        if len(set(ms)) > 1:
            raise DimensionMismatch(f"components must share one inducing count, got {ms}")
        self.likelihood = likelihood
        self.data = dataset
        self.state = _model.init_state(self.specs, structure, r) if state is None else state
        if len(self.state.alpha) != self.m * self.c:
            raise DimensionMismatch(
                f"alpha has length {len(self.state.alpha)}, expected M*C = {self.m * self.c}"
            )
        self._cache_key = None
        self._cache = None
        self._clamp_total = 0

    @property
    def n(self):
        return self.data.n

    @property
    def m(self):
        return self.specs[0].m

    @property
    def c(self):
        return len(self.specs)

    def _with_inducing(self, spec, xp):
        """The spec kept for one whose projected training inputs are ``xp``."""
        return spec

    def _hyper_key(self):  # the key of the cached prior blocks
        return np.concatenate([s.kernel.get_params() for s in self.specs]).tobytes()

    def _kmats(self):
        """``_prior_blocks()``, recomputed only when a kernel
        hyperparameter changed."""
        key = self._hyper_key()
        if key != self._cache_key:
            self._cache = self._prior_blocks()
            self._cache_key = key
        return self._cache

    def _blocks(self, coupling=None):
        """Views into ``coupling`` (by default the state's) of the parameters
        of the independent blocks of q(U): here the one coupled block."""
        return [getattr(self.state, self.coupling) if coupling is None else coupling]

    def _posterior(self, ku, ksum, work=(None,) * 5):
        """``Posterior`` of the state: one block's coupling, or the stack of all."""
        blocks = self._blocks()
        coupling = blocks[0] if len(blocks) == 1 else np.stack(blocks)
        return Posterior(self.specs, self.state.alpha, coupling, ku, ksum, work)

    def marginals(self, Xq=None, include_components=False):
        """Marginals at the query points, by default the training inputs,
        with the cached prior Grams."""
        post = self._posterior(*self._kmats()[:2])
        return post.at(self.data.X if Xq is None else Xq, include_components)

    def kl(self):
        """KL from q(U) to the prior p(U), exactly zero at the prior-matching state."""
        return self._posterior(*self._kmats()[:2]).kl()

    def elbo(self):
        """Evidence lower bound, clamped as in training."""
        return self._bound(grads=False)

    def elbo_with_grads(self, train_hypers=False):
        """Bound value and analytic gradients: a dict with 'alpha' (C, M),
        the coupling field (shaped like it), and with ``train_hypers``
        'kernels' (one array per component) and 'lik'."""
        return self._bound(train_hypers)

    def _row_slices(self):
        """The blocks of training rows the bound walks."""
        return _row_blocks(self.n, _BOUND_ROWS)

    def _bound(self, train_hypers=False, grads=True):
        """The bound from one ``Posterior``, summed over blocks of training
        rows, each read once by ``Posterior.read``: var_sum = d0 - rowsum(t^2).
        With U = Gs J P, Psi = P J^T Gs J P and Omega = P - P P (Gs the
        variance weights of the expected log-likelihood, P = A^{-1}), every
        gradient is a pullback of dE/dmu, U, Psi and Omega, whose sums the
        ``Posterior`` keeps. A row block pulls its own cross-block and
        diagonal weights back; the last, with Psi whole, pulls the Gram's
        back too. No array is N rows long beyond the cached prior blocks."""
        hyper = grads and train_hypers
        ku, ksum, cross = self._prior_blocks(pullbacks=True) if hyper else self._kmats()
        post = self._posterior(ku, ksum, self._work)
        kl = post.kl()
        y, ell, glik, gkernels = self.data.Y, 0.0, 0.0, [0.0] * self.c
        for rows in self._row_slices():
            f, d0, pbs = cross(rows)
            mu, down = post.read(f, rows)
            s = d0 - down
            clamped = s < VAR_CLAMP
            s[clamped] = VAR_CLAMP
            ell += float(np.sum(self.likelihood.expected_loglik(y[rows], mu, s)))
            if not grads:
                continue
            self._clamp_total += int(np.sum(clamped))
            gmu, gs = self.likelihood.expected_loglik_grads(y[rows], mu, s)
            if np.any(gs > 0.0):  # lambda's Psi is a square in sqrt(-dE/ds)
                raise ValueError(f"{type(self.likelihood).__name__}: dE/ds > 0, not log-concave")
            gs = np.where(clamped, 0.0, gs)
            if hyper:
                glik += self.likelihood.expected_loglik_param_grads(y[rows], mu, s).sum(axis=1)
            last = rows.stop == self.n
            u = post.accumulate(gmu, gs, last)
            if hyper:
                for ci, (gk, gf) in enumerate(post.kernel_weights(u, last)):
                    gkernels[ci] += pbs[ci](gk, gf, gs)
            del f, pbs, u  # before the next block allocates its own
        if not grads:
            return ell - kl

        galpha, gc = post.gradients()
        gcoupling = np.zeros_like(getattr(self.state, self.coupling))
        _scatter(self._blocks(gcoupling), gc.ravel())
        grads = {"alpha": galpha, self.coupling: gcoupling}
        if hyper:
            grads["kernels"] = gkernels
            grads["lik"] = glik
        return ell - kl, grads

    # -- training --------------------------------------------------------------

    def _hypers(self):
        return [s.kernel.get_params() for s in self.specs] + [
            self.likelihood.get_params()
        ]

    def _set_hypers(self, vecs):
        for s, pvec in zip(self.specs, vecs):
            s.kernel.set_params(pvec)
        self.likelihood.set_params(vecs[-1])

    def _variational(self):
        """Views of alpha and the coupling blocks, the optimizer's order."""
        return [self.state.alpha] + self._blocks()

    def _make_objective(self, train_hypers):
        nv = sum(v.size for v in self._variational())
        sizes = [s.kernel.n_params for s in self.specs]

        def unpack(x):
            _scatter(self._variational(), x[:nv])
            if train_hypers:
                self._set_hypers(np.split(x[nv:], np.cumsum(sizes)))

        def fun(x):
            unpack(x)
            val, g = self.elbo_with_grads(train_hypers=train_hypers)
            gvec = [g["alpha"]] + self._blocks(g[self.coupling])
            if train_hypers:
                gvec += g["kernels"] + [g["lik"]]
            return val, np.concatenate([a.ravel() for a in gvec])

        x0 = [v.ravel() for v in self._variational()]
        bounds = [(None, None)] * nv
        if train_hypers:
            x0 += self._hypers()
            names = [p for s in self.specs for p in s.kernel.param_names()]
            bounds += bounds_for_names(names + self.likelihood.param_names())
        return fun, np.concatenate(x0), bounds, unpack

    def train(self, config=None):
        """Two-phase maximization of the bound; returns a TrainResult and
        leaves the model at the best parameters found. Each of the
        ``config.multi_start`` restarts begins from the starting
        hyperparameters and the zero state, randomly perturbed; the state
        is written in place throughout."""
        config = config or TrainConfig()
        self._clamp_total = 0
        hyper0 = self._hypers()
        best = None
        failures = 0
        for attempt in range(1 + max(0, config.multi_start)):
            if attempt > 0:
                self._set_hypers(hyper0)
                for v in self._variational():
                    v[...] = 0.0
            self._perturb_start(config.seed + attempt, restart=attempt > 0)
            res = run_two_phase(self._make_objective, config)
            failures += res.failures
            if best is None or res.final_elbo > best.final_elbo:
                best, best_hypers = res, self._hypers()
                best_x = np.concatenate([v.ravel() for v in self._variational()])
        _scatter(self._variational(), best_x)
        self._set_hypers(best_hypers)
        best.clamp_count = self._clamp_total
        best.failures = failures
        return best


def _scatter(views, x):
    """Write the flat vector x into ``views`` in order, in place."""
    for v, xv in zip(views, np.split(x, np.cumsum([v.size for v in views]))):
        v[...] = xv.reshape(v.shape)


class SparseModel(AdditiveModel):
    """Additive model with the coupled sparse posterior."""

    coupling = "B"

    def __init__(self, specs, likelihood, dataset, state=None, structure=None, r=None):
        if structure == _model.FULL:
            raise ValueError("the dense structure is FullModel's")
        if state is not None and structure not in (None, state.structure):
            raise ValueError("state structure disagrees with requested structure")
        super().__init__(specs, likelihood, dataset, state, structure or _model.COUPLED, r)
        if self.state.structure == _model.MEAN_FIELD:
            _model.check_mean_field(self.state.B, self.m, self.c)

    @property
    def r(self):
        return self.state.r

    def _prior_blocks(self, pullbacks=False):
        """(C, M, M) inducing Grams, no Gram sum, and ``_cross_rows`` of a row
        slice: with ``pullbacks`` evaluated per slice, else sliced from one
        evaluation at all N rows."""
        grams = [s.kernel.cross_with_pullback(s.Z) for s in self.specs]
        ku, pks = np.array([k for k, _, _ in grams]), [pk for _, _, pk in grams]
        if pullbacks:
            return ku, None, functools.partial(self._cross_rows, pks)
        f, d0, _ = self._cross_rows(pks, slice(0, self.n))
        return ku, None, lambda rows: (f[rows], d0[rows], None)

    def _cross_rows(self, pks, rows):
        """At the training rows ``rows``, from one kernel call per component:
        the cross block with K_c(X, Z_c) in columns c M .. (c + 1) M, the
        summed prior diagonal and the pullbacks, ``pks`` for the Grams."""
        m = self.m
        f = np.empty((rows.stop - rows.start, self.c * m))
        d0 = np.zeros(len(f))
        pbs = []
        for ci, (s, xp, pk) in enumerate(zip(self.specs, self._xp, pks)):
            f[:, ci * m : (ci + 1) * m], dc, pb = s.kernel.cross_with_pullback(xp[rows], s.Z)
            d0 += dc
            pbs.append(lambda gk, gf, gs, pk=pk, pb=pb:
                       pb(gf, gs) + (0.0 if gk is None else pk(gk, None)))
        return f, d0, pbs

    # -- training hooks ----------------------------------------------------------

    def _blocks(self, coupling=None):
        """B whole, or for mean-field its C diagonal M x M blocks (R = M C)."""
        blocks = super()._blocks(coupling)
        if self.state.structure != _model.MEAN_FIELD:
            return blocks
        return _diagonal_blocks(blocks[0], self.m)

    def _perturb_start(self, seed, restart=False):
        """Nudge B off the exact-zero saddle (the bound is even in B, so
        its gradient vanishes identically there); restarts draw larger."""
        if not np.any(self.state.B):
            rng = np.random.default_rng(seed)
            sd = (1.0 if restart else 1e-2) / np.sqrt(self.m * self.c)
            blocks = self._blocks()
            _scatter(blocks, rng.normal(0.0, sd, sum(b.size for b in blocks)))


def _diagonal_blocks(b, m):
    """Views of the diagonal M x M blocks of a square B."""
    return [b[i : i + m, i : i + m] for i in range(0, len(b), m)]


def _read_blocks(specs, coupling):
    """The coupling as ``Posterior`` reads it: when B is square (R = M C) and
    zero off its diagonal M x M blocks, as mean-field guarantees, the (C, M, M)
    stack of those blocks, which makes the split exact; else the coupling."""
    coupling, m, c = np.asarray(coupling, dtype=float), specs[0].m, len(specs)
    if coupling.shape == (m * c, m * c) and not coupling[~_model.mean_field_mask(m, c)].any():
        return np.stack(_diagonal_blocks(coupling, m))
    return coupling


def predict_marginals(specs, alpha, coupling, Xq, include_components=False):
    """Predictive marginals at query points, given only the specs and the
    posterior parameters (no dataset needed). ``coupling`` is B, or lambda
    for the dense model, whose specs carry the projected training inputs as
    Z."""
    return Posterior(specs, alpha, _read_blocks(specs, coupling)).at(Xq, include_components)


def decompose(specs, alpha, coupling, grids, coupled_check=False):
    """Per-component posterior effects on per-component grids.

    ``grids[c]`` has one column per active dim of component c (projected
    space); ``coupling`` is B or lambda, as for ``predict_marginals``.
    Returns a list of (grid, mean, variance) triples, each grid read in blocks
    as ``Posterior.at`` reads (128 x N entries per array at N >= 512). The marginal variance
    of component c only involves the (c, c) block of the coupled posterior
    covariance, read as in ``predict_marginals``; with ``coupled_check`` it
    is recomputed through the whole capacitance, assembled densely and
    LU-factored once, bypassing the Cholesky path: for B, I + [B_1^T K_1,
    ..., B_C^T K_C] [B_1; ...; B_C] and W_c = B_c A^{-1} B_c^T; for lambda,
    I + Lambda Ksum Lambda from the Gram sum the read keeps and one
    W = Lambda A^{-1} Lambda. The maximum discrepancy is a fourth element.
    """
    post = Posterior(specs, alpha, _read_blocks(specs, coupling))
    if coupled_check:
        whole, m = np.asarray(coupling, dtype=float), specs[0].m
        if whole.ndim == 1:
            a = np.multiply(post._ksum, whole[:, None])
            a *= whole
            a.reshape(-1)[:: len(a) + 1] += 1.0
            ws = [np.linalg.solve(a, np.diag(whole)) * whole[:, None]]
        else:
            bs = [whole[ci * m : (ci + 1) * m] for ci in range(len(specs))]
            bk = np.hstack([(ku.T @ b).T for ku, b in zip(post.ku, bs)])
            # A^{-1} B_c^T side by side from one LU
            ainv_bt = np.linalg.solve(np.eye(len(bk)) + bk @ whole, whole.T)
            ws = [b @ ainv_bt[:, ci * m : (ci + 1) * m] for ci, b in enumerate(bs)]
    out, size = [], _read_rows(specs[0].m)
    for ci, s in enumerate(specs):
        g = np.atleast_2d(np.asarray(grids[ci], dtype=float))
        w, blocks = ws[ci % len(ws)] if coupled_check else None, _row_blocks(len(g), size)
        if len(blocks) == 1:  # the whole grid, not copied
            mean, var, vw = _grid_effect(s, post, ci, g, w)
        else:  # the box check first, so that a bad input fails as in one pass
            s.kernel.diag(np.stack((g.min(axis=0), g.max(axis=0))))
            parts = zip(*(_grid_effect(s, post, ci, g[rows], w) for rows in blocks))
            mean, var, vw = (None if p[0] is None else np.concatenate(p) for p in parts)
        out.append((g, mean, var) if w is None else (g, mean, var, float(np.max(abs(var - vw)))))
    return out


def _grid_effect(s, post, ci, g, w):
    """(mean, variance, variance through W or None) of component ci at grid rows g."""
    kq, dg = s.kernel.cross_with_pullback(g, s.Z)[:2]
    mean, t = post.mu_t(kq, ci)
    return mean, dg - _rowsq(t), None if w is None else dg - np.einsum("ij,ij->i", kq @ w, kq)
