"""Sparse variational inference with posterior coupling across components.

Each additive component c gets M inducing variables U_c at inputs Z_c. The
joint posterior over U = (U_1, ..., U_C) is parameterized in precision
space as

    Sigma_U^{-1} = K_UU^{-1} + B B^T,    q(U) = N(K_UU alpha, Sigma_U),

with B in R^{MC x R} (default R = M). The off-diagonal blocks of B B^T are
what lets the posterior carry the anti-correlations between components
that the additive likelihood induces; constraining B to a block-diagonal
layout (structure "meanfield", R = MC) recovers the factorized baseline in
the same code path. The dense reference model (``full.FullModel``) is this
family too, with Z_c = X and the tied diagonal B_c = Lambda for every c.

All bound terms reduce to the R x R capacitance matrix

    A = I_R + sum_c B_c^T K_{U_c} B_c:

    KL[q || p] = 1/2 ( log|A| + sum_c alpha_c^T K_{U_c} alpha_c
                       - sum_c tr(B_c A^{-1} B_c^T K_{U_c}) )
    mu_sum     = sum_c K_{f_c U_c} alpha_c
    var_sum    = sum_c k_c(x, x) - diag(J A^{-1} J^T),
                 J = sum_c K_{f_c U_c} B_c,

so a bound evaluation costs O(C M^3 + N C M R) after the kernel rows: no
N x N matrix is ever formed. ``Posterior`` factors A once and serves every
read (model marginals, prediction, decomposition) for B and for Lambda
alike. ``AdditiveModel`` holds what both model classes share: validation,
the kernel cache, ``elbo()`` and training. ``SparseModel`` keeps the
cross-covariances as one component-major (N, C M) block F, so mu_sum and J
are one product F [alpha, B] and their gradients one product F^T [dmu, dJ].
Gradients for alpha, B, and all log-hyperparameters are analytic; the
hyperparameter part pulls dBound/dK back through each kernel
(``Kernel.eval_with_pullback``).
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


class Posterior:
    """The posterior over the inducing variables, factored once for reads.

    ``coupling`` is either B (M C x R) or the vector lambda, which stands for
    B_c = diag(lambda) for every c with Z_c the training inputs (the dense
    model). ``ku`` holds the prior Grams K_c(Z_c, Z_c) when the caller
    already has them. Marginals come from cross blocks F_c = K_c(X*, Z_c) and
    prior diagonals k_c(x, x) at the read points.
    """

    def __init__(self, specs, alpha, coupling, ku=None):
        self.specs = specs
        c, m = len(specs), specs[0].m
        self.alphas = np.asarray(alpha, dtype=float).reshape(c, m)
        coupling = np.asarray(coupling, dtype=float)
        self.ku = [s.kernel.eval(s.Z) for s in specs] if ku is None else ku
        if coupling.ndim == 1:
            self._lam, self._b = coupling, None
            a = (coupling[:, None] * sum(self.ku)) * coupling[None, :]
            a[np.diag_indices_from(a)] += 1.0
        else:
            self._lam, self._b = None, coupling.reshape(c, m, coupling.shape[1])
            a = _capacitance(self._b, np.matmul(self.ku, self._b))
        self.L = cholesky(a)

    def times_b(self, ci, fc):
        """F_c B_c for a block F_c with the M_c columns of component ci."""
        return fc * self._lam if self._b is None else fc @ self._b[ci]

    def component(self, ci, fc, dc):
        """(mean, variance) of component ci from its cross block and prior
        diagonal; only the (c, c) block of the posterior covariance enters."""
        t = tri_solve(self.L, self.times_b(ci, fc).T)
        return fc @ self.alphas[ci], dc - np.einsum("ji,ji->i", t, t)

    def marginals(self, fcs, d, diags=None):
        """Marginals of the summed predictor from the per-component cross
        blocks and the summed prior diagonal ``d``; given the per-component
        prior diagonals, each component's (mean, variance) as well."""
        j = self.times_b(0, fcs[0])
        for ci in range(1, len(fcs)):
            j += self.times_b(ci, fcs[ci])
        t = tri_solve(self.L, j.T)
        per = None
        if diags is not None:
            per = [self.component(ci, fc, dc) for ci, (fc, dc) in enumerate(zip(fcs, diags))]
        return _model.PredictorMarginals(
            mu_sum=sum(fc @ a for fc, a in zip(fcs, self.alphas)),
            var_sum=d - np.einsum("ji,ji->i", t, t),
            per_component=per,
        )

    def at(self, Xq, include_components=False):
        """Marginals at the query points Xq (full input width)."""
        xps = [s.project(Xq) for s in self.specs]
        fcs = [s.kernel.eval(xp, s.Z) for s, xp in zip(self.specs, xps)]
        diags = [s.kernel.diag(xp) for s, xp in zip(self.specs, xps)]
        return self.marginals(fcs, sum(diags), diags if include_components else None)


class AdditiveModel:
    """What the sparse and the dense model share: validation, the data
    projections, the hyperparameter-keyed cache of prior blocks, marginals
    through ``Posterior``, ``elbo()`` and two-phase training with restarts.

    A subclass names its coupling field in the state (``coupling``, "B" or
    "lam") and supplies ``_prior_blocks`` (whose first three entries are the
    prior Grams, the per-component cross blocks and the summed prior
    diagonal at the training inputs), ``kl``, ``elbo_with_grads``,
    ``_fresh_state`` and ``_perturb_start``, and narrows ``_free_index``
    where only part of the coupling may move.
    """

    coupling = None

    def __init__(self, specs, likelihood, dataset):
        report = _model.validate_model(specs, dataset)
        if not report.ok:
            raise DimensionMismatch(f"invalid model: {report}")
        self.specs = list(specs)
        self.likelihood = likelihood
        self.data = dataset
        self._xp = [s.project(dataset.X) for s in self.specs]
        # the specs the posterior reads Z_c from (X for the dense model)
        self.posterior_specs = self.specs
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

    def _kmats(self):
        """``_prior_blocks()``, recomputed only when a kernel
        hyperparameter changed."""
        key = np.concatenate([s.kernel.get_params() for s in self.specs]).tobytes()
        if key != self._cache_key:
            self._cache = self._prior_blocks()
            self._cache_key = key
        return self._cache

    def marginals(self, Xq=None, include_components=False):
        """Marginals of the summed predictor at the training inputs (cached
        blocks) or at query points."""
        ku, fcs, d0 = self._kmats()[:3]
        post = Posterior(
            self.posterior_specs, self.state.alpha, getattr(self.state, self.coupling), ku=ku
        )
        if Xq is not None:
            return post.at(Xq, include_components)
        diags = None
        if include_components:
            diags = [s.kernel.diag(xp) for s, xp in zip(self.specs, self._xp)]
        return post.marginals(fcs, d0, diags)

    def elbo(self):
        """Evidence lower bound, with the variance clamp of the training
        bound."""
        m = self.marginals()
        var = np.maximum(m.var_sum, VAR_CLAMP)
        e = float(np.sum(self.likelihood.expected_loglik(self.data.Y, m.mu_sum, var)))
        return e - self.kl()

    # -- training --------------------------------------------------------------

    def _hypers(self):
        return [s.kernel.get_params() for s in self.specs] + [
            self.likelihood.get_params()
        ]

    def _set_hypers(self, vecs):
        for s, pvec in zip(self.specs, vecs):
            s.kernel.set_params(pvec)
        self.likelihood.set_params(vecs[-1])

    def _free_index(self):
        """Flat indices into the coupling that the optimizer may move."""
        return np.arange(getattr(self.state, self.coupling).size)

    def _make_objective(self, train_hypers):
        field = self.coupling
        free = self._free_index()
        shape = getattr(self.state, field).shape
        na = len(self.state.alpha)
        nv = na + len(free)
        sizes = [s.kernel.n_params for s in self.specs]

        def unpack(x):
            self.state.alpha = x[:na].copy()
            flat = np.zeros(int(np.prod(shape)))
            flat[free] = x[na:nv]
            setattr(self.state, field, flat.reshape(shape))
            if train_hypers:
                self._set_hypers(np.split(x[nv:], np.cumsum(sizes)))

        def fun(x):
            unpack(x)
            val, g = self.elbo_with_grads(train_hypers=train_hypers)
            gvec = [g["alpha"].ravel(), g[field].reshape(-1)[free]]
            if train_hypers:
                gvec.extend(g["kernels"])
                gvec.append(g["lik"])
            return val, np.concatenate(gvec)

        x0 = [self.state.alpha, getattr(self.state, field).ravel()[free]]
        bounds = [(None, None)] * nv
        if train_hypers:
            x0 += self._hypers()
            names = [p for s in self.specs for p in s.kernel.param_names()]
            bounds += bounds_for_names(names + self.likelihood.param_names(), self._cfg)
        return fun, np.concatenate(x0), bounds, unpack

    def train(self, config=None):
        """Two-phase maximization of the bound; returns a TrainResult and
        leaves the model at the best parameters found. Each of the
        ``config.multi_start`` restarts begins from the starting
        hyperparameters and a fresh, randomly perturbed state."""
        config = config or TrainConfig()
        self._cfg = config
        self._clamp_total = 0
        hyper0 = self._hypers()
        best = None
        best_snap = None
        for attempt in range(1 + max(0, config.multi_start)):
            if attempt > 0:
                self._set_hypers(hyper0)
                self.state = self._fresh_state()
            self._perturb_start(config.seed + attempt, restart=attempt > 0)
            res = run_two_phase(self._make_objective, config)
            if best is None or res.final_elbo > best.final_elbo:
                best = res
                best_snap = (
                    self.state.alpha.copy(),
                    getattr(self.state, self.coupling).copy(),
                    self._hypers(),
                )
        self.state.alpha = best_snap[0]
        setattr(self.state, self.coupling, best_snap[1])
        self._set_hypers(best_snap[2])
        best.clamp_count = self._clamp_total
        return best


class SparseModel(AdditiveModel):
    """Additive model with the coupled sparse posterior."""

    coupling = "B"

    def __init__(self, specs, likelihood, dataset, state=None, structure=None, r=None):
        super().__init__(specs, likelihood, dataset)
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

    @property
    def m(self):
        return self.specs[0].m

    @property
    def r(self):
        return self.state.r

    def _prior_blocks(self):
        """(C, M, M) inducing Grams, the per-component cross blocks, the
        summed prior diagonal at the data, and the (N, C M) block those
        cross blocks are views of, with K_c(X, Z_c) in columns
        c M .. (c + 1) M."""
        m = self.m
        ku = np.stack([s.kernel.eval(s.Z) for s in self.specs])
        f = np.empty((self.n, self.c * m))
        for ci, (s, xp) in enumerate(zip(self.specs, self._xp)):
            f[:, ci * m : (ci + 1) * m] = s.kernel.eval(xp, s.Z)
        d0 = np.sum([s.kernel.diag(xp) for s, xp in zip(self.specs, self._xp)], axis=0)
        return ku, np.hsplit(f, self.c), d0, f

    def _b_blocks(self):
        return self.state.B.reshape(self.c, self.m, self.r)

    def kl(self):
        """KL from q(U) to the prior p(U); exactly zero at alpha=0, B=0."""
        ku = self._kmats()[0]
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
            ku, _, d0, f = self._kmats()

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

    # -- training hooks ----------------------------------------------------------

    def _free_index(self):
        """Everything for the coupled structure, the diagonal blocks for
        mean-field."""
        if self.state.structure == _model.MEAN_FIELD:
            return np.flatnonzero(_model.mean_field_mask(self.m, self.c).ravel())
        return super()._free_index()

    def _fresh_state(self):
        return _model.init_state(self.specs, structure=self.state.structure, r=self.r)

    def _perturb_start(self, seed, restart=False):
        """Nudge B off the exact-zero saddle (the bound is even in B, so
        its gradient vanishes identically there); restarts draw larger."""
        if not np.any(self.state.B):
            rng = np.random.default_rng(seed)
            sd = (1.0 if restart else 1e-2) / np.sqrt(self.m * self.c)
            bflat = np.zeros(self.state.B.size)
            free = self._free_index()
            bflat[free] = rng.normal(0.0, sd, len(free))
            self.state.B = bflat.reshape(self.state.B.shape)


def predict_marginals(specs, alpha, coupling, Xq, include_components=False):
    """Predictive marginals at query points, given only the specs and the
    posterior parameters (no dataset needed). ``coupling`` is B, or lambda
    for the dense model, whose specs carry the projected training inputs as
    Z."""
    return Posterior(specs, alpha, coupling).at(Xq, include_components)


def decompose(specs, alpha, coupling, grids, coupled_check=False):
    """Per-component posterior effects on per-component grids.

    ``grids[c]`` has one column per active dim of component c (projected
    space); ``coupling`` is B or lambda, as for ``predict_marginals``.
    Returns a list of (grid, mean, variance) triples. The marginal variance
    of component c only involves the (c, c) block of the coupled posterior
    covariance; with ``coupled_check`` the cross term is recomputed through
    a densely assembled capacitance, I + [B_1^T K_1, ..., B_C^T K_C] [B_1;
    ...; B_C], and generic LU solves, bypassing the Cholesky path, and the
    maximum discrepancy is returned as a fourth element.
    """
    post = Posterior(specs, alpha, coupling)
    if coupled_check:
        bk = np.hstack([post.times_b(ci, k.T).T for ci, k in enumerate(post.ku)])
        bs = np.vstack([post.times_b(ci, np.eye(len(k))) for ci, k in enumerate(post.ku)])
        a_dense = np.eye(len(post.L)) + bk @ bs
    out = []
    for ci, s in enumerate(specs):
        g = np.atleast_2d(np.asarray(grids[ci], dtype=float))
        kq = s.kernel.eval(g, s.Z)
        dg = s.kernel.diag(g)
        mean, var = post.component(ci, kq, dg)
        if coupled_check:
            jc = post.times_b(ci, kq)
            var_dense = dg - np.einsum("ij,ji->i", jc, np.linalg.solve(a_dense, jc.T))
            out.append((g, mean, var, float(np.max(np.abs(var - var_dense)))))
        else:
            out.append((g, mean, var))
    return out
