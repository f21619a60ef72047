"""Sparse variational inference with posterior coupling across components.

Each additive component c gets M inducing variables U_c at inputs Z_c. The
joint posterior over U = (U_1, ..., U_C) is parameterized in precision
space as

    Sigma_U^{-1} = K_UU^{-1} + B B^T,    q(U) = N(K_UU alpha, Sigma_U),

with B in R^{MC x R} (default R = M). The off-diagonal blocks of B B^T are
what lets the posterior carry the anti-correlations between components
that the additive likelihood induces; constraining B to a block-diagonal
layout (structure "meanfield", R = MC) recovers the factorized baseline in
the same code path.

All bound terms reduce to the R x R capacitance matrix

    A = I_R + sum_c B_c^T K_{U_c} B_c:

    KL[q || p] = 1/2 ( log|A| + sum_c alpha_c^T K_{U_c} alpha_c
                       - sum_c tr(B_c A^{-1} B_c^T K_{U_c}) )
    mu_sum     = sum_c K_{f_c U_c} alpha_c
    var_sum    = sum_c k_c(x, x) - diag(J A^{-1} J^T),
                 J = sum_c K_{f_c U_c} B_c,

so a bound evaluation costs O(C M^3 + N C M R) after the kernel rows: no
N x N matrix is ever formed. The cross-covariances are kept as one
component-major (N, C M) block F, so mu_sum and J are one product F [alpha, B]
and their gradients one product F^T [dmu, dJ]. Gradients for alpha, B, and
all log-hyperparameters are analytic; the hyperparameter part pulls
dBound/dK back through each kernel (``Kernel.eval_with_pullback``).
"""

from __future__ import annotations

import numpy as np

from . import model as _model
from .errors import DimensionMismatch
from .linalg import cholesky, logdet_from_chol, solve_from_chol, tri_solve
from .optimize import TrainConfig, bounds_for_names, run_two_phase

VAR_CLAMP = 1e-12


def _capacitance(b, kb):
    """A = I_R + sum_c B_c^T (K_{U_c} B_c) from the stacked blocks
    b (C, M, R) and kb = K_U @ b; batched matmuls keep this BLAS-bound."""
    a = np.tensordot(b, kb, axes=([0, 1], [0, 1]))
    a[np.diag_indices_from(a)] += 1.0
    return a


class SparseModel:
    """Additive model with the coupled sparse posterior."""

    def __init__(self, specs, likelihood, dataset, state=None, structure=None, r=None):
        report = _model.validate_model(specs, dataset)
        if not report.ok:
            raise DimensionMismatch(f"invalid model: {report}")
        self.specs = list(specs)
        self.likelihood = likelihood
        self.data = dataset
        if state is None:
            state = _model.init_state(
                specs, structure=structure or _model.COUPLED, r=r
            )
        elif structure is not None and state.structure != structure:
            raise ValueError("state structure disagrees with requested structure")
        self.state = state
        m, c = self.m, self.c
        if len(state.alpha) != m * c:
            raise DimensionMismatch(
                f"alpha has length {len(state.alpha)}, expected M*C = {m * c}"
            )
        self._xp = [s.project(dataset.X) for s in self.specs]
        self._cache_key = None
        self._cache = None
        self._clamp_total = 0
        self._cfg = TrainConfig()

    @property
    def n(self):
        return self.data.n

    @property
    def c(self):
        return len(self.specs)

    @property
    def m(self):
        return self.specs[0].m

    @property
    def r(self):
        return self.state.r

    # -- cached kernel blocks ---------------------------------------------

    def _hyper_key(self):
        vecs = [s.kernel.get_params() for s in self.specs]
        return np.concatenate(vecs).tobytes() if vecs else b""

    def _kmats(self):
        """(C, M, M) inducing Grams, the (N, C M) component-major cross
        block and the summed prior diagonal at the data."""
        key = self._hyper_key()
        if key != self._cache_key:
            self._cache = _prior_blocks(self.specs, self._xp)
            self._cache_key = key
        return self._cache

    def _b_blocks(self):
        return self.state.B.reshape(self.c, self.m, self.r)

    # -- core quantities ----------------------------------------------------

    def kl(self):
        """KL from q(U) to the prior p(U); exactly zero at alpha=0, B=0."""
        ku, _, _ = self._kmats()
        b = self._b_blocks()
        alphas = self.state.alpha.reshape(self.c, self.m)
        kb = np.matmul(ku, b)  # (C, M, R)
        L = cholesky(_capacitance(b, kb))
        ka = np.matmul(ku, alphas[:, :, None])[:, :, 0]
        quad = float(np.sum(alphas * ka))
        # B_c A^{-1} for all c in one triangular solve pair
        ba = solve_from_chol(L, self.state.B.T).T.reshape(self.c, self.m, self.r)
        trace = float(np.sum(ba * kb))
        return 0.5 * (logdet_from_chol(L) + quad - trace)

    def marginals(self, Xq=None, include_components=False):
        """Marginals of the summed predictor at the training inputs (cached
        blocks) or at query points."""
        if Xq is None:
            ku, f, d0 = self._kmats()
            xq_p = self._xp
        else:
            xq_p = [s.project(Xq) for s in self.specs]
            ku, f, d0 = _prior_blocks(self.specs, xq_p)
        m = self.m
        b = self._b_blocks()
        alphas = self.state.alpha.reshape(self.c, m)
        L = cholesky(_capacitance(b, np.matmul(ku, b)))
        j = f @ self.state.B
        t = tri_solve(L, j.T)
        var = d0 - np.einsum("ji,ji->i", t, t)
        per = None
        if include_components:
            per = []
            for ci, s in enumerate(self.specs):
                fc = f[:, ci * m : (ci + 1) * m]
                tc = tri_solve(L, (fc @ b[ci]).T)
                var_c = s.kernel.diag(xq_p[ci]) - np.einsum("ji,ji->i", tc, tc)
                per.append((fc @ alphas[ci], var_c))
        return _model.PredictorMarginals(
            mu_sum=f @ self.state.alpha, var_sum=var, per_component=per
        )

    def elbo(self, batch=None):
        """Evidence lower bound; optional minibatch indices rescale the
        data term by N/|batch| (unbiased in expectation)."""
        m = self.marginals()
        var = np.maximum(m.var_sum, VAR_CLAMP)
        if batch is None:
            e = float(
                np.sum(self.likelihood.expected_loglik(self.data.Y, m.mu_sum, var))
            )
        else:
            batch = np.asarray(batch, dtype=int)
            vals = self.likelihood.expected_loglik(
                self.data.Y[batch], m.mu_sum[batch], var[batch]
            )
            e = float(np.sum(vals)) * self.n / len(batch)
        return e - self.kl()

    # -- gradients -----------------------------------------------------------

    def elbo_with_grads(self, train_hypers=False):
        """Bound value and analytic gradients for alpha, B and (optionally)
        the log-hyperparameters."""
        c, m, r, n = self.c, self.m, self.r, self.n
        b = self._b_blocks()
        alphas = self.state.alpha.reshape(c, m)

        if train_hypers:
            ku = np.empty((c, m, m))
            f = np.empty((n, c * m))
            d0 = np.zeros(n)
            pullbacks = []
            for ci, (spec, xp) in enumerate(zip(self.specs, self._xp)):
                ku[ci], pb_ku = spec.kernel.eval_with_pullback(spec.Z)
                f[:, ci * m : (ci + 1) * m], pb_f = spec.kernel.eval_with_pullback(
                    xp, spec.Z
                )
                dgc, pb_d = spec.kernel.diag_with_pullback(xp)
                d0 += dgc
                pullbacks.append((pb_ku, pb_f, pb_d))
        else:
            ku, f, d0 = self._kmats()

        kb = np.matmul(ku, b)  # (C, M, R)
        L = cholesky(_capacitance(b, kb))
        p = solve_from_chol(L, np.eye(r))
        p = 0.5 * (p + p.T)

        # mu = F alpha and J = F B in one pass over F
        mj = f @ np.column_stack((self.state.alpha, self.state.B))
        mu = mj[:, 0]
        j = mj[:, 1:]
        jp = j @ p
        s_raw = d0 - np.einsum("nr,nr->n", jp, j)
        clamped = s_raw < VAR_CLAMP
        self._clamp_total += int(np.sum(clamped))
        s = np.where(clamped, VAR_CLAMP, s_raw)

        y = self.data.Y
        vvals = self.likelihood.expected_loglik(y, mu, s)
        gmu, gs = self.likelihood.expected_loglik_grads(y, mu, s)
        gs = np.where(clamped, 0.0, gs)

        ka = np.matmul(ku, alphas[:, :, None])[:, :, 0]
        quad = float(np.sum(alphas * ka))
        trace = float(np.sum(kb * np.matmul(b, p)))
        kl = 0.5 * (logdet_from_chol(L) + quad - trace)
        elbo = float(np.sum(vvals)) - kl

        # u = [dE/dmu, Gs J P]: dE/dF_c = u [alpha_c; -2 B_c^T]
        u = np.empty((n, 1 + r))
        u[:, 0] = gmu
        np.multiply(gs[:, None], jp, out=u[:, 1:])
        omega = p - p @ p
        psi = jp.T @ u[:, 1:]  # P J^T Gs J P
        ftu = (f.T @ u).reshape(c, m, 1 + r)
        galpha = ftu[:, :, 0] - ka
        gb = -2.0 * ftu[:, :, 1:] + 2.0 * np.matmul(kb, psi) - np.matmul(kb, omega)

        grads = {"alpha": galpha, "B": gb}
        if train_hypers:
            kernel_grads = []
            for ci, (pb_ku, pb_f, pb_d) in enumerate(pullbacks):
                gk = (
                    b[ci] @ (psi - 0.5 * omega) @ b[ci].T
                    - 0.5 * np.outer(alphas[ci], alphas[ci])
                )
                gf = u @ np.vstack((alphas[ci], -2.0 * b[ci].T))
                kernel_grads.append(pb_ku(gk) + pb_f(gf) + pb_d(gs))
            grads["kernels"] = kernel_grads
            grads["lik"] = self.likelihood.expected_loglik_param_grads(
                y, mu, s
            ).sum(axis=1)
        return elbo, grads

    # -- training --------------------------------------------------------------

    def _free_b_index(self):
        """Flat indices into B that the optimizer may move: everything for
        the coupled structure, the diagonal blocks for mean-field."""
        if self.state.structure == _model.MEAN_FIELD:
            mask = _model.mean_field_mask(self.m, self.c)
            return np.flatnonzero(mask.ravel())
        return np.arange(self.state.B.size)

    def _make_objective(self, train_hypers):
        m, c = self.m, self.c
        free = self._free_b_index()
        na = m * c
        nv = na + len(free)

        def unpack(x):
            self.state.alpha = x[:na].copy()
            bflat = np.zeros(self.state.B.size)
            bflat[free] = x[na:nv]
            self.state.B = bflat.reshape(self.state.B.shape)
            if train_hypers:
                i = nv
                for s in self.specs:
                    npar = s.kernel.n_params
                    s.kernel.set_params(x[i : i + npar])
                    i += npar
                self.likelihood.set_params(x[i:])

        def fun(x):
            unpack(x)
            val, g = self.elbo_with_grads(train_hypers=train_hypers)
            gvec = [g["alpha"].ravel(), g["B"].reshape(-1)[free]]
            if train_hypers:
                gvec.extend(g["kernels"])
                gvec.append(g["lik"])
            return val, np.concatenate(gvec)

        x0 = [self.state.alpha, self.state.B.ravel()[free]]
        bounds = [(None, None)] * nv
        if train_hypers:
            cfg = self._cfg
            for s in self.specs:
                x0.append(s.kernel.get_params())
                bounds.extend(bounds_for_names(s.kernel.param_names(), cfg))
            x0.append(self.likelihood.get_params())
            bounds.extend(bounds_for_names(self.likelihood.param_names(), cfg))
        return fun, np.concatenate(x0), bounds, unpack

    def _perturb_start(self, seed, scale=None):
        """Nudge B off the exact-zero saddle (the bound is even in B, so
        its gradient vanishes identically there)."""
        if not np.any(self.state.B):
            rng = np.random.default_rng(seed)
            sd = scale if scale is not None else 1e-2 / np.sqrt(self.m * self.c)
            bflat = np.zeros(self.state.B.size)
            free = self._free_b_index()
            bflat[free] = rng.normal(0.0, sd, len(free))
            self.state.B = bflat.reshape(self.state.B.shape)

    def train(self, config=None):
        """Two-phase maximization of the bound; returns a TrainResult and
        leaves the model at the best parameters found."""
        config = config or TrainConfig()
        self._cfg = config
        self._clamp_total = 0
        hyper0 = [s.kernel.get_params() for s in self.specs] + [
            self.likelihood.get_params()
        ]
        structure = self.state.structure
        rank = self.r
        best = None
        best_snap = None
        for attempt in range(1 + max(0, config.multi_start)):
            if attempt > 0:
                for s, pvec in zip(self.specs, hyper0):
                    s.kernel.set_params(pvec)
                self.likelihood.set_params(hyper0[-1])
                self.state = _model.init_state(
                    self.specs, structure=structure, r=rank if structure == _model.COUPLED else None
                )
                self._perturb_start(
                    config.seed + attempt, scale=1.0 / np.sqrt(self.m * self.c)
                )
            else:
                self._perturb_start(config.seed)
            res = run_two_phase(self._make_objective, config)
            if best is None or res.final_elbo > best.final_elbo:
                best = res
                best_snap = (
                    self.state.alpha.copy(),
                    self.state.B.copy(),
                    [s.kernel.get_params() for s in self.specs],
                    self.likelihood.get_params(),
                )
        self.state.alpha, self.state.B = best_snap[0], best_snap[1]
        for s, pvec in zip(self.specs, best_snap[2]):
            s.kernel.set_params(pvec)
        self.likelihood.set_params(best_snap[3])
        best.clamp_count = self._clamp_total
        return best


def _prior_blocks(specs, xps):
    """(C, M, M) inducing Grams, the (N, C M) cross block with
    K_c(X, Z_c) in columns c M .. (c + 1) M, and the summed prior diagonal."""
    m = specs[0].m
    ku = np.stack([s.kernel.eval(s.Z) for s in specs])
    f = np.empty((len(xps[0]), len(specs) * m))
    for ci, (s, xp) in enumerate(zip(specs, xps)):
        f[:, ci * m : (ci + 1) * m] = s.kernel.eval(xp, s.Z)
    d0 = np.sum([s.kernel.diag(xp) for s, xp in zip(specs, xps)], axis=0)
    return ku, f, d0


def predict_marginals(specs, alpha, B, Xq, include_components=False):
    """Predictive marginals of a sparse model at query points, given only
    the specs and the posterior parameters (no dataset needed)."""
    c = len(specs)
    m = specs[0].m
    alpha = np.asarray(alpha, dtype=float).ravel()
    B = np.atleast_2d(np.asarray(B, dtype=float))
    state = _model.VariationalState(alpha=alpha, B=B)
    b = B.reshape(c, m, state.r)
    alphas = alpha.reshape(c, m)
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))

    ku = np.stack([s.kernel.eval(s.Z) for s in specs])
    L = cholesky(_capacitance(b, np.matmul(ku, b)))

    f = [s.kernel.eval(s.project(Xq), s.Z) for s in specs]
    mu_c = np.stack([f[ci] @ alphas[ci] for ci in range(c)])
    j = sum(f[ci] @ b[ci] for ci in range(c))
    t = tri_solve(L, j.T)
    var = sum(s.kernel.diag(s.project(Xq)) for s in specs) - np.einsum(
        "ji,ji->i", t, t
    )
    per = None
    if include_components:
        per = []
        for ci, s in enumerate(specs):
            tc = tri_solve(L, (f[ci] @ b[ci]).T)
            per.append(
                (
                    mu_c[ci],
                    s.kernel.diag(s.project(Xq)) - np.einsum("ji,ji->i", tc, tc),
                )
            )
    return _model.PredictorMarginals(
        mu_sum=mu_c.sum(axis=0), var_sum=var, per_component=per
    )


def decompose(specs, alpha, B, grids, coupled_check=False):
    """Per-component posterior effects on per-component grids.

    ``grids[c]`` has one column per active dim of component c (projected
    space). Returns a list of (grid, mean, variance) triples. The marginal
    variance of component c only involves the (c, c) block of the coupled
    posterior covariance; with ``coupled_check`` the cross term is
    recomputed through a densely assembled capacitance and generic LU
    solves, bypassing the factored per-block path, and the maximum
    discrepancy is returned as a fourth element.
    """
    c = len(specs)
    m = specs[0].m
    alphas = np.asarray(alpha, dtype=float).reshape(c, m)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    b = B.reshape(c, m, B.shape[1])
    ku = np.stack([s.kernel.eval(s.Z) for s in specs])
    L = cholesky(_capacitance(b, np.matmul(ku, b)))

    a_dense = None
    if coupled_check:
        kfull = np.zeros((m * c, m * c))
        for ci in range(c):
            kfull[ci * m : (ci + 1) * m, ci * m : (ci + 1) * m] = ku[ci]
        a_dense = np.eye(B.shape[1]) + B.T @ kfull @ B

    out = []
    for ci, s in enumerate(specs):
        g = np.atleast_2d(np.asarray(grids[ci], dtype=float))
        kq = s.kernel.eval(g, s.Z)
        mean = kq @ alphas[ci]
        tc = tri_solve(L, (kq @ b[ci]).T)
        var = s.kernel.diag(g) - np.einsum("ji,ji->i", tc, tc)
        if coupled_check:
            jc = kq @ b[ci]
            var_dense = s.kernel.diag(g) - np.einsum(
                "ij,ji->i", jc, np.linalg.solve(a_dense, jc.T)
            )
            out.append((g, mean, var, float(np.max(np.abs(var - var_dense)))))
        else:
            out.append((g, mean, var))
    return out
