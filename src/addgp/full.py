"""Dense variational inference for additive predictors.

The posterior over the stacked component values F = (f_1, ..., f_C) at the
N training inputs keeps the prior-precision-plus-low-rank form

    Sigma_F^{-1} = K_FF^{-1} + (1_C (x) Lambda)(1_C (x) Lambda)^T,

with Lambda = diag(lambda), lambda in R^N unconstrained, and the mean
parameterized as K_FF alpha. Every quantity the bound needs then reduces
to the N x N capacitance matrix

    A = I + Lambda (sum_c K_c) Lambda:

    KL[q || p]   = 1/2 ( log|A| + sum_c alpha_c^T K_c alpha_c
                         - tr(A^{-1} Lambda Ksum Lambda) )
    mu_sum       = sum_c K_c alpha_c
    var_sum      = sum_c diag(K_c) - diag(Ksum Lambda A^{-1} Lambda Ksum)

so one O(N^3) factorization per evaluation covers any number of
components. This is the reference implementation: cubic in N by design,
capped at N <= 5000, with analytic gradients for alpha, lambda, and all
log-hyperparameters.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import likelihoods as _lik
from . import model as _model
from .errors import CapExceeded, DimensionMismatch, NotPositiveDefinite
from .linalg import cholesky, logdet_from_chol, solve_from_chol, tri_solve
from .optimize import TrainConfig, bounds_for_names, run_two_phase

N_CAP = 5000
N_WARN = 2000

VAR_CLAMP = 1e-12


def _diag_prod(a, b):
    """diag(a @ b) without forming the product."""
    return np.einsum("ij,ji->i", a, b)


class FullModel:
    """Additive model with the dense coupled posterior.

    Parameters live in ``self.state`` (a FullVariationalState); kernels and
    the likelihood own their hyperparameters. ``specs`` provide kernels and
    active dims; inducing inputs in the specs are ignored here.
    """

    def __init__(self, specs, likelihood, dataset, state=None):
        if dataset.n > N_CAP:
            raise CapExceeded(
                f"dense model is O(N^3) and capped at N={N_CAP}; "
                f"got N={dataset.n}. Use the sparse model instead."
            )
        if dataset.n > N_WARN:
            warnings.warn(
                f"dense model with N={dataset.n} will be slow; the sparse "
                "model scales much better",
                RuntimeWarning,
                stacklevel=2,
            )
        report = _model.validate_model(specs, dataset)
        if not report.ok:
            raise DimensionMismatch(f"invalid model: {report}")
        self.specs = list(specs)
        self.likelihood = likelihood
        self.data = dataset
        self.state = state or _model.init_full_state(dataset.n, len(specs))
        if len(self.state.lam) != dataset.n or len(self.state.alpha) != (
            dataset.n * len(specs)
        ):
            raise DimensionMismatch("state size does not match N, C")
        self._xp = [s.project(dataset.X) for s in self.specs]
        self._kcache_key = None
        self._kcache = None
        self._clamp_total = 0
        self._cfg = TrainConfig()

    @property
    def n(self):
        return self.data.n

    @property
    def c(self):
        return len(self.specs)

    # -- kernel matrices ------------------------------------------------

    def _hyper_key(self):
        vecs = [s.kernel.get_params() for s in self.specs]
        return np.concatenate(vecs).tobytes() if vecs else b""

    def _kmats(self):
        key = self._hyper_key()
        if key != self._kcache_key:
            karr = np.stack(
                [s.kernel.eval(xp) for s, xp in zip(self.specs, self._xp)]
            )
            ksum = karr.sum(axis=0)
            self._kcache = (karr, ksum, np.diagonal(ksum).copy())
            self._kcache_key = key
        return self._kcache

    # -- core quantities -------------------------------------------------

    def assemble_A(self):
        """Capacitance matrix A = I + Lambda Ksum Lambda and its Cholesky."""
        _, ksum, _ = self._kmats()
        lam = self.state.lam
        a = (lam[:, None] * ksum) * lam[None, :]
        a[np.diag_indices_from(a)] += 1.0
        return a, cholesky(a)

    def kl(self):
        """KL from the posterior to the prior over F; zero at the
        prior-matching state, always >= 0 up to rounding."""
        karr, ksum, _ = self._kmats()
        lam = self.state.lam
        alphas = self.state.alpha.reshape(self.c, self.n)
        a, L = self.assemble_A()
        ka = np.matmul(karr, alphas[:, :, None])[:, :, 0]
        quad = float(np.sum(alphas * ka))
        s_mat = (lam[:, None] * ksum) * lam[None, :]
        trace = float(np.trace(solve_from_chol(L, s_mat)))
        return 0.5 * (logdet_from_chol(L) + quad - trace)

    def marginals(self, Xq=None, include_components=False):
        """Gaussian marginals of the summed predictor, at the training
        inputs by default or at query points Xq."""
        if Xq is not None:
            return predict_marginals(
                self._as_trained_specs(),
                self.state.alpha,
                self.state.lam,
                Xq,
                include_components=include_components,
            )
        karr, ksum, d0 = self._kmats()
        lam = self.state.lam
        alphas = self.state.alpha.reshape(self.c, self.n)
        _, L = self.assemble_A()
        mu_c = np.matmul(karr, alphas[:, :, None])[:, :, 0]
        s = tri_solve(L, lam[:, None] * ksum)
        var = d0 - np.einsum("ji,ji->i", s, s)
        per = None
        if include_components:
            per = []
            for ci in range(self.c):
                sc = tri_solve(L, lam[:, None] * karr[ci])
                per.append(
                    (mu_c[ci], np.diagonal(karr[ci]) - np.einsum("ji,ji->i", sc, sc))
                )
        return _model.PredictorMarginals(
            mu_sum=mu_c.sum(axis=0), var_sum=var, per_component=per
        )

    def _as_trained_specs(self):
        """Specs whose Z carry the projected training inputs, which is what
        the predictive collapse needs."""
        return [
            _model.ComponentSpec(kernel=s.kernel, active_dims=s.active_dims, Z=xp)
            for s, xp in zip(self.specs, self._xp)
        ]

    def elbo(self, batch=None):
        """Evidence lower bound: expected log-likelihood minus KL."""
        m = self.marginals()
        if batch is None:
            e = _lik.expected_loglik_sum(self.likelihood, self.data.Y, m)
        else:
            batch = np.asarray(batch, dtype=int)
            vals = self.likelihood.expected_loglik(
                self.data.Y[batch], m.mu_sum[batch], m.var_sum[batch]
            )
            e = float(np.sum(vals)) * self.n / len(batch)
        return e - self.kl()

    # -- gradients -------------------------------------------------------

    def elbo_with_grads(self, train_hypers=False):
        """Bound value and analytic gradients.

        Returns ``(elbo, grads)`` where grads has keys 'alpha' (C, N),
        'lam' (N,), and with ``train_hypers`` also 'kernels' (list of
        per-component arrays) and 'lik'.
        """
        n, c = self.n, self.c
        lam = self.state.lam
        alphas = self.state.alpha.reshape(c, n)

        if train_hypers:
            karr = np.empty((c, n, n))
            pullbacks = []
            for ci, (spec, xp) in enumerate(zip(self.specs, self._xp)):
                karr[ci], pb = spec.kernel.eval_with_pullback(xp)
                pullbacks.append(pb)
            ksum = karr.sum(axis=0)
        else:
            karr, ksum, _ = self._kmats()
        d0 = np.diagonal(ksum)

        h = lam[:, None] * ksum  # Lambda Ksum
        a = h * lam[None, :]
        a[np.diag_indices_from(a)] += 1.0
        L = cholesky(a)

        mu_c = np.matmul(karr, alphas[:, :, None])[:, :, 0]
        mu = mu_c.sum(axis=0)
        t = tri_solve(L, h)
        s_raw = d0 - np.einsum("ji,ji->i", t, t)
        clamped = s_raw < VAR_CLAMP
        self._clamp_total += int(np.sum(clamped))
        s = np.where(clamped, VAR_CLAMP, s_raw)

        y = self.data.Y
        vvals = self.likelihood.expected_loglik(y, mu, s)
        gmu, gs = self.likelihood.expected_loglik_grads(y, mu, s)
        gs = np.where(clamped, 0.0, gs)

        logdet = logdet_from_chol(L)
        ka = np.matmul(karr, alphas[:, :, None])[:, :, 0]
        quad = float(np.sum(alphas * ka))
        s_mat = h * lam[None, :]
        p = solve_from_chol(L, np.eye(n))
        p = 0.5 * (p + p.T)
        trace = float(np.sum(p * s_mat))
        kl = 0.5 * (logdet + quad - trace)
        elbo = float(np.sum(vvals)) - kl

        galpha = np.matmul(karr, (gmu[None, :] - alphas)[:, :, None])[:, :, 0]

        ph = p @ h
        phgs = ph * gs[None, :]
        d1 = np.sum(phgs * ksum, axis=1)  # diag(PH Gs Ksum), Ksum symmetric
        d2 = _diag_prod(phgs @ h.T, ph)
        d3 = np.diagonal(ph)
        d4 = _diag_prod(p, ph)
        glam = -2.0 * d1 + 2.0 * d2 - d3 + d4

        grads = {"alpha": galpha, "lam": glam}
        if train_hypers:
            # shared part of dELBO/dK_c across components
            g1 = gs[:, None] * ph.T * lam[None, :]  # Gs H^T P Lambda
            q = phgs @ ph.T  # PH Gs (PH)^T
            p2 = p @ p
            lol = lam[:, None] * lam[None, :]
            common = -g1 - g1.T + q * lol - 0.5 * (p * lol) + 0.5 * (p2 * lol)
            common[np.diag_indices_from(common)] += gs
            kernel_grads = []
            for ci in range(c):
                gk = (
                    common
                    + np.outer(gmu, alphas[ci])
                    - 0.5 * np.outer(alphas[ci], alphas[ci])
                )
                kernel_grads.append(pullbacks[ci](gk))
            grads["kernels"] = kernel_grads
            grads["lik"] = self.likelihood.expected_loglik_param_grads(
                y, mu, s
            ).sum(axis=1)
        return elbo, grads

    # -- training ----------------------------------------------------------

    def _make_objective(self, train_hypers):
        n, c = self.n, self.c
        nv = n * c + n

        def unpack(x):
            self.state.alpha = x[: n * c].copy()
            self.state.lam = x[n * c : nv].copy()
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
            gvec = [g["alpha"].ravel(), g["lam"]]
            if train_hypers:
                gvec.extend(g["kernels"])
                gvec.append(g["lik"])
            return val, np.concatenate(gvec)

        x0 = [self.state.alpha, self.state.lam]
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
        """Nudge lambda off the exact-zero saddle (the bound is even in
        lambda, so the gradient vanishes identically there)."""
        if not np.any(self.state.lam):
            if scale is None:
                self.state.lam = np.full(self.n, 1e-2)
            else:
                rng = np.random.default_rng(seed)
                self.state.lam = rng.normal(0.0, scale, self.n)

    def train(self, config=None):
        """Two-phase maximization of the bound; the model is left at the
        best parameters found and a TrainResult is returned."""
        config = config or TrainConfig()
        self._cfg = config
        self._clamp_total = 0
        hyper0 = [s.kernel.get_params() for s in self.specs] + [
            self.likelihood.get_params()
        ]
        best = None
        best_snap = None
        for attempt in range(1 + max(0, config.multi_start)):
            if attempt > 0:
                for s, p in zip(self.specs, hyper0):
                    s.kernel.set_params(p)
                self.likelihood.set_params(hyper0[-1])
                self.state = _model.init_full_state(self.n, self.c)
                self._perturb_start(
                    config.seed + attempt, scale=1.0 / np.sqrt(self.n)
                )
            else:
                self._perturb_start(config.seed)
            res = run_two_phase(self._make_objective, config)
            if best is None or res.final_elbo > best.final_elbo:
                best = res
                best_snap = (
                    self.state.alpha.copy(),
                    self.state.lam.copy(),
                    [s.kernel.get_params() for s in self.specs],
                    self.likelihood.get_params(),
                )
        self.state.alpha, self.state.lam = best_snap[0], best_snap[1]
        for s, p in zip(self.specs, best_snap[2]):
            s.kernel.set_params(p)
        self.likelihood.set_params(best_snap[3])
        best.clamp_count = self._clamp_total
        return best


def predict_marginals(specs, alpha, lam, Xq, include_components=False):
    """Predictive marginals of the dense model at query points.

    ``specs`` must carry the projected training inputs as Z (that is all
    the collapse formula needs): with A = I + Lambda Ksum Lambda over the
    training inputs,

        mu*(x)  = sum_c k_c(x, X) alpha_c
        var*(x) = sum_c k_c(x, x)
                  - h(x)^T A^{-1} h(x),   h(x) = Lambda sum_c k_c(X, x).
    """
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    c = len(specs)
    n = specs[0].Z.shape[0]
    lam = np.asarray(lam, dtype=float).ravel()
    alphas = np.asarray(alpha, dtype=float).reshape(c, n)
    karr = np.stack([s.kernel.eval(s.Z) for s in specs])
    ksum = karr.sum(axis=0)
    a = (lam[:, None] * ksum) * lam[None, :]
    a[np.diag_indices_from(a)] += 1.0
    L = cholesky(a)

    kq = [s.kernel.eval(s.project(Xq), s.Z) for s in specs]  # (nq, N) each
    mu_c = np.stack([kq[ci] @ alphas[ci] for ci in range(c)])
    hq = lam[:, None] * sum(kq).T
    t = tri_solve(L, hq)
    var = sum(s.kernel.diag(s.project(Xq)) for s in specs) - np.einsum(
        "ji,ji->i", t, t
    )
    per = None
    if include_components:
        per = []
        for ci, s in enumerate(specs):
            tc = tri_solve(L, lam[:, None] * kq[ci].T)
            per.append(
                (
                    mu_c[ci],
                    s.kernel.diag(s.project(Xq)) - np.einsum("ji,ji->i", tc, tc),
                )
            )
    return _model.PredictorMarginals(
        mu_sum=mu_c.sum(axis=0), var_sum=var, per_component=per
    )


def decompose(specs, alpha, lam, grids):
    """Per-component effects of a dense model on per-component grids.

    ``grids[c]`` has one column per active dim of component c, in the
    projected space. Returns a list of (grid, mean, variance) triples; the
    variance is the exact marginal variance of component c, which only
    involves the (c, c) block of the posterior covariance.
    """
    c = len(specs)
    n = specs[0].Z.shape[0]
    lam = np.asarray(lam, dtype=float).ravel()
    alphas = np.asarray(alpha, dtype=float).reshape(c, n)
    ksum = sum(s.kernel.eval(s.Z) for s in specs)
    a = (lam[:, None] * ksum) * lam[None, :]
    a[np.diag_indices_from(a)] += 1.0
    L = cholesky(a)
    out = []
    for ci, s in enumerate(specs):
        g = np.atleast_2d(np.asarray(grids[ci], dtype=float))
        kq = s.kernel.eval(g, s.Z)
        mean = kq @ alphas[ci]
        tc = tri_solve(L, lam[:, None] * kq.T)
        var = s.kernel.diag(g) - np.einsum("ji,ji->i", tc, tc)
        out.append((g, mean, var))
    return out
