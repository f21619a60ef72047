"""Exact dense posteriors for the conjugate (Gaussian likelihood) case.

With y = sum_c f_c(x) + eps, eps ~ N(0, sigma^2), the summed predictor is
itself a GP with kernel sum_c k_c, so the posterior over the sum, over any
single component, and the log evidence are all available in closed form at
O(N^3). These are the ground-truth quantities the variational models are
validated against; N is capped to keep the dense algebra honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded
from .linalg import cholesky, logdet_from_chol, tri_solve

N_CAP = 2000

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class ExactPosterior:
    """Gaussian posterior (mean, full covariance) plus the log evidence of
    the conjugate model it came from."""

    mean: np.ndarray
    cov: np.ndarray
    log_evidence: float


def _check_cap(n):
    if n > N_CAP:
        raise CapExceeded(f"exact oracle is dense and capped at N={N_CAP}, got {n}")


def _conjugate_solve(specs, dataset, noise_variance):
    """The Cholesky factor L of Ksum + s2 I at the training inputs,
    a = (Ksum + s2 I)^{-1} y and the log evidence."""
    _check_cap(dataset.n)
    ksum = sum(s.kernel.eval(s.project(dataset.X)) for s in specs)
    L = cholesky(ksum + noise_variance * np.eye(dataset.n))
    y = dataset.Y
    a = tri_solve(L, tri_solve(L, y), transpose=True)
    log_ev = -0.5 * float(y @ a) - 0.5 * logdet_from_chol(L) - 0.5 * dataset.n * _LOG_2PI
    return L, a, log_ev


def exact_sum_posterior(specs, dataset, noise_variance, Xq=None):
    """Posterior over the summed predictor at Xq (training inputs by
    default), with the exact log evidence."""
    L, a, log_ev = _conjugate_solve(specs, dataset, noise_variance)
    Xq = dataset.X if Xq is None else np.atleast_2d(np.asarray(Xq, dtype=float))
    ks = sum(s.kernel.eval(s.project(Xq), s.project(dataset.X)) for s in specs)
    kss = sum(s.kernel.eval(s.project(Xq)) for s in specs)
    mean = ks @ a
    v = tri_solve(L, ks.T)
    cov = kss - v.T @ v
    return ExactPosterior(mean=mean, cov=cov, log_evidence=log_ev)


def exact_component_posterior(specs, dataset, noise_variance, component, Xq=None):
    """Posterior over a single additive component at Xq: the component is
    jointly Gaussian with the observed sum, so

        E[f_c | y]   = K_c (Ksum + s2 I)^{-1} y
        Cov[f_c | y] = K_c(q, q) - K_c(q, X)(Ksum + s2 I)^{-1} K_c(X, q).
    """
    L, a, log_ev = _conjugate_solve(specs, dataset, noise_variance)
    spec = specs[component]
    Xq = dataset.X if Xq is None else np.atleast_2d(np.asarray(Xq, dtype=float))
    kq = spec.kernel.eval(spec.project(Xq), spec.project(dataset.X))
    mean = kq @ a
    v = tri_solve(L, kq.T)
    cov = spec.kernel.eval(spec.project(Xq)) - v.T @ v
    return ExactPosterior(mean=mean, cov=cov, log_evidence=log_ev)


def dense_gaussian_kl(mean0, cov0, mean1, cov1):
    """KL(N0 || N1) between dense Gaussians, via Cholesky factors."""
    mean0 = np.asarray(mean0, dtype=float).ravel()
    mean1 = np.asarray(mean1, dtype=float).ravel()
    k = len(mean0)
    _check_cap(k)
    l0 = cholesky(np.asarray(cov0, dtype=float))
    l1 = cholesky(np.asarray(cov1, dtype=float))
    w = tri_solve(l1, l0)
    d = tri_solve(l1, mean1 - mean0)
    return 0.5 * (
        float(np.sum(w * w))
        + float(d @ d)
        - k
        + logdet_from_chol(l1)
        - logdet_from_chol(l0)
    )
