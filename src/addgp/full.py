"""Dense variational inference for additive predictors.

The posterior over the stacked component values F = (f_1, ..., f_C) at the
N training inputs keeps the prior-precision-plus-low-rank form

    Sigma_F^{-1} = K_FF^{-1} + (1_C (x) Lambda)(1_C (x) Lambda)^T,

with Lambda = diag(lambda), lambda in R^N unconstrained, and the mean
parameterized as K_FF alpha. This is the sparse coupled posterior with
inducing inputs Z_c = X and the tied diagonal B_c = Lambda for every c (the
per-datum-precision form of Opper & Archambeau 2009), so marginals,
prediction, decomposition and training are the sparse module's
(``sparse.Posterior``, ``sparse.AdditiveModel``). What stays here is the
bound: every term reduces to the N x N capacitance matrix

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

from . import model as _model
from . import sparse as _sparse
from .errors import CapExceeded, DimensionMismatch
from .linalg import cholesky, logdet_from_chol, solve_from_chol, tri_solve

N_CAP = 5000
N_WARN = 2000


class FullModel(_sparse.AdditiveModel):
    """Additive model with the dense coupled posterior.

    Parameters live in ``self.state`` (a FullVariationalState); kernels and
    the likelihood own their hyperparameters. ``specs`` provide kernels and
    active dims; inducing inputs in the specs are ignored here.
    """

    coupling = "lam"

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
        super().__init__(specs, likelihood, dataset)
        self.state = state or _model.init_full_state(dataset.n, len(specs))
        if len(self.state.lam) != dataset.n or len(self.state.alpha) != (
            dataset.n * len(specs)
        ):
            raise DimensionMismatch("state size does not match N, C")
        self.posterior_specs = [
            _model.ComponentSpec(kernel=s.kernel, active_dims=s.active_dims, Z=xp)
            for s, xp in zip(self.specs, self._xp)
        ]

    def _prior_blocks(self):
        """(C, N, N) Grams at the training inputs, which are also the cross
        blocks, the summed prior diagonal and the summed Gram."""
        karr = np.stack([s.kernel.eval(xp) for s, xp in zip(self.specs, self._xp)])
        ksum = karr.sum(axis=0)
        return karr, karr, np.diagonal(ksum).copy(), ksum

    def kl(self):
        """KL from the posterior to the prior over F; zero at the
        prior-matching state, always >= 0 up to rounding."""
        karr, _, _, ksum = self._kmats()
        lam = self.state.lam
        alphas = self.state.alpha.reshape(self.c, self.n)
        s_mat = (lam[:, None] * ksum) * lam[None, :]
        L = cholesky(s_mat + np.eye(self.n))
        ka = np.matmul(karr, alphas[:, :, None])[:, :, 0]
        quad = float(np.sum(alphas * ka))
        trace = float(np.trace(solve_from_chol(L, s_mat)))
        return 0.5 * (logdet_from_chol(L) + quad - trace)

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
            karr, _, _, ksum = self._kmats()
        d0 = np.diagonal(ksum)

        h = lam[:, None] * ksum  # Lambda Ksum
        a = h * lam[None, :]
        a[np.diag_indices_from(a)] += 1.0
        L = cholesky(a)

        ka = np.matmul(karr, alphas[:, :, None])[:, :, 0]
        mu = ka.sum(axis=0)
        t = tri_solve(L, h)
        s_raw = d0 - np.einsum("ji,ji->i", t, t)
        clamped = s_raw < _sparse.VAR_CLAMP
        self._clamp_total += int(np.sum(clamped))
        s = np.where(clamped, _sparse.VAR_CLAMP, s_raw)

        y = self.data.Y
        vvals = self.likelihood.expected_loglik(y, mu, s)
        gmu, gs = self.likelihood.expected_loglik_grads(y, mu, s)
        gs = np.where(clamped, 0.0, gs)

        logdet = logdet_from_chol(L)
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
        d2 = np.einsum("ij,ji->i", phgs @ h.T, ph)
        d3 = np.diagonal(ph)
        d4 = np.einsum("ij,ji->i", p, ph)
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

    # -- training hooks ------------------------------------------------------

    def _fresh_state(self):
        return _model.init_full_state(self.n, self.c)

    def _perturb_start(self, seed, restart=False):
        """Nudge lambda off the exact-zero saddle (the bound is even in
        lambda, so the gradient vanishes identically there); restarts draw
        it at random."""
        if not np.any(self.state.lam):
            if restart:
                rng = np.random.default_rng(seed)
                self.state.lam = rng.normal(0.0, 1.0 / np.sqrt(self.n), self.n)
            else:
                self.state.lam = np.full(self.n, 1e-2)


def predict_marginals(specs, alpha, lam, Xq, include_components=False):
    """Predictive marginals of the dense model at query points; ``specs``
    must carry the projected training inputs as Z."""
    return _sparse.predict_marginals(specs, alpha, lam, Xq, include_components)


def decompose(specs, alpha, lam, grids):
    """Per-component effects of a dense model on per-component grids, as
    (grid, mean, variance) triples; ``specs`` as for ``predict_marginals``."""
    return _sparse.decompose(specs, alpha, lam, grids)
