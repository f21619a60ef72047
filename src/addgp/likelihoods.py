"""Observation models and the expected log-likelihood terms
``E_{f ~ N(mu, s)}[log p(y | f)]`` they contribute to the bound.

The Gaussian case is closed form. Everything else goes through
Gauss-Hermite quadrature in the physicists' convention (weights sum to
sqrt(pi)), substituting ``f = mu + sqrt(2 s) t``:

    E[log p(y | f)] ~= (1/sqrt(pi)) sum_j w_j log p(y | mu + sqrt(2 s) t_j).

Derivatives w.r.t. mu and s reuse the same nodes via the score and
curvature of the log-density, which is exact for the quadrature degree
used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import gammaln

from .errors import DimensionMismatch

DEFAULT_QUAD_POINTS = 20

_SQRT_PI = np.sqrt(np.pi)


@dataclass
class QuadratureRule:
    """Gauss-Hermite nodes and weights (physicists' convention)."""

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss_hermite(cls, n_points=DEFAULT_QUAD_POINTS):
        t, w = hermgauss(n_points)
        return cls(nodes=t, weights=w)


def _check_lengths(y, mu, var):
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    if not (y.shape == mu.shape == var.shape):
        raise DimensionMismatch(
            f"y, mu, var must share a shape, got {y.shape}, {mu.shape}, {var.shape}"
        )
    return y, mu, var


# the one rule every quadrature expectation uses
_RULE = QuadratureRule.gauss_hermite()


def _quad_nodes(mu, var):
    # negative variances of rounding size are clamped to zero here
    sd = np.sqrt(2.0 * np.maximum(var, 0.0))
    return mu[:, None] + sd[:, None] * _RULE.nodes[None, :]


def quadrature_expected_loglik(lik, y, mu, var):
    """Gauss-Hermite estimate of ``E[log p(y | f)]`` for any likelihood
    exposing ``log_density``. Mostly a test hook; likelihoods without a
    closed form call this internally."""
    y, mu, var = _check_lengths(y, mu, var)
    vals = lik.log_density(y[:, None], _quad_nodes(mu, var))
    return vals @ _RULE.weights / _SQRT_PI


def quadrature_expected_loglik_grads(lik, y, mu, var):
    """d/dmu and d/ds of the quadrature estimate, via the score and the
    curvature of the log-density at the same nodes."""
    y, mu, var = _check_lengths(y, mu, var)
    f = _quad_nodes(mu, var)
    dmu = lik.d_log_density(y[:, None], f) @ _RULE.weights / _SQRT_PI
    dvar = 0.5 * (lik.d2_log_density(y[:, None], f) @ _RULE.weights) / _SQRT_PI
    return dmu, dvar


class Gaussian:
    """Homoskedastic Gaussian observations with trainable log noise variance."""

    def __init__(self, log_noise_variance=0.0):
        self.log_noise_variance = float(log_noise_variance)

    @property
    def noise_variance(self):
        return np.exp(self.log_noise_variance)

    kind = "gaussian"
    n_params = 1

    def log_density(self, y, f):
        s2 = self.noise_variance
        return -0.5 * np.log(2.0 * np.pi * s2) - 0.5 * (y - f) ** 2 / s2

    def d_log_density(self, y, f):
        return (y - f) / self.noise_variance

    def d2_log_density(self, y, f):
        return np.full(np.broadcast(y, f).shape, -1.0 / self.noise_variance)

    def expected_loglik(self, y, mu, var):
        y, mu, var = _check_lengths(y, mu, var)
        s2 = self.noise_variance
        return (
            -0.5 * np.log(2.0 * np.pi * s2)
            - 0.5 * ((y - mu) ** 2 + var) / s2
        )

    def expected_loglik_grads(self, y, mu, var):
        y, mu, var = _check_lengths(y, mu, var)
        s2 = self.noise_variance
        return (y - mu) / s2, np.full_like(mu, -0.5 / s2)

    def expected_loglik_param_grads(self, y, mu, var):
        """Per-point derivative w.r.t. log noise variance."""
        y, mu, var = _check_lengths(y, mu, var)
        s2 = self.noise_variance
        return ((-0.5 + 0.5 * ((y - mu) ** 2 + var) / s2))[None, :]

    def get_params(self):
        return np.array([self.log_noise_variance])

    def set_params(self, values):
        self.log_noise_variance = float(np.asarray(values, dtype=float)[0])

    def param_names(self):
        return ["log_noise_variance"]


class Poisson:
    """Poisson counts with the exponential link, rate ``exp(f)``.

    No closed-form expectation is used at runtime; everything routes
    through the shared quadrature rule.
    """

    kind = "poisson"
    n_params = 0

    def log_density(self, y, f):
        return y * f - np.exp(f) - gammaln(y + 1.0)

    def d_log_density(self, y, f):
        return y - np.exp(f)

    def d2_log_density(self, y, f):
        return -np.exp(f) * np.ones_like(y)

    def expected_loglik(self, y, mu, var):
        return quadrature_expected_loglik(self, y, mu, var)

    def expected_loglik_grads(self, y, mu, var):
        return quadrature_expected_loglik_grads(self, y, mu, var)

    def expected_loglik_param_grads(self, y, mu, var):
        return np.zeros((0, np.asarray(y).shape[0]))

    def get_params(self):
        return np.zeros(0)

    def set_params(self, values):
        if len(np.atleast_1d(values)):
            raise DimensionMismatch("Poisson likelihood has no parameters")

    def param_names(self):
        return []
