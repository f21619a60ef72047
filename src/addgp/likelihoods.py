"""Observation models and the expected log-likelihood terms
``E_{f ~ N(mu, s)}[log p(y | f)]`` they contribute to the bound.

Both are closed form. The Gaussian term is a quadratic in f. The Poisson
term with the log link needs E[e^f], which is the lognormal mean
e^{mu + s/2}, so

    E[y f - e^f - log y!] = y mu - e^{mu + s/2} - log y!.

Nothing is clamped: where e^{mu + s/2} overflows, the Poisson term is
-inf, and the optimizer counts the non-finite bound as a failed step.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .errors import DimensionMismatch


def _check_lengths(y, mu, var):
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    if not (y.shape == mu.shape == var.shape):
        raise DimensionMismatch(
            f"y, mu, var must share a shape, got {y.shape}, {mu.shape}, {var.shape}"
        )
    return y, mu, var


class Gaussian:
    """Homoskedastic Gaussian observations with trainable log noise variance."""

    def __init__(self, log_noise_variance=0.0):
        self.log_noise_variance = float(log_noise_variance)

    @property
    def noise_variance(self):
        return np.exp(self.log_noise_variance)

    kind = "gaussian"
    n_params = 1

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
    """Poisson counts with the exponential link, rate ``exp(f)``."""

    kind = "poisson"
    n_params = 0

    def expected_loglik(self, y, mu, var):
        y, mu, var = _check_lengths(y, mu, var)
        return y * mu - np.exp(mu + 0.5 * var) - gammaln(y + 1.0)

    def expected_loglik_grads(self, y, mu, var):
        y, mu, var = _check_lengths(y, mu, var)
        rate = np.exp(mu + 0.5 * var)
        return y - rate, -0.5 * rate

    def expected_loglik_param_grads(self, y, mu, var):
        return np.zeros((0, np.asarray(y).shape[0]))

    def get_params(self):
        return np.zeros(0)

    def set_params(self, values):
        if len(np.atleast_1d(values)):
            raise DimensionMismatch("Poisson likelihood has no parameters")

    def param_names(self):
        return []
