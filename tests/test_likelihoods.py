"""Expected log-likelihood terms against independent oracles.

Both likelihoods are closed form, and three kinds of check hold them:
  * the Gaussian term against the same formula written out here;
  * the Poisson term, E[y f - e^f - log y!] = y mu - e^{mu + var/2} - log y!
    (e^f is lognormal), and its two derivatives against a 50-digit
    ``mpmath`` evaluation, to 1e-13 of each quantity's scale at variances
    up to 100;
  * both against a plain Monte Carlo average of the log density within 3
    standard errors at a million samples.
"""

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from addgp import Gaussian, Poisson
from conftest import central_diff


def _poisson_grid():
    """Every (y, mu, s) of the oracle checks, flattened. The tiny negative
    variance is the rounding a marginal variance may carry: it must give
    the s = 0 answer, not a NaN."""
    y, mu, s = np.meshgrid(
        [0.0, 1.0, 3.0, 7.0, 22.0],
        np.linspace(-5.0, 5.0, 21),
        [-1e-15, 0.0, 0.5, 1.7, 4.0, 10.0, 30.0, 100.0],
        indexing="ij",
    )
    return y.ravel(), mu.ravel(), s.ravel()


def _poisson_reference(y, mu, s):
    """The closed form and its derivatives in 50-digit arithmetic, with
    the scale each is held to: (value, d/dmu, d/ds) and their scales."""
    out = np.empty((6, y.size))
    with mpmath.workdps(50):
        for i, (yi, mi, si) in enumerate(zip(y, mu, s)):
            yi, mi, si = mpmath.mpf(yi), mpmath.mpf(mi), mpmath.mpf(si)
            rate = mpmath.exp(mi + si / 2)
            log_fact = mpmath.loggamma(yi + 1)
            out[:, i] = [
                yi * mi - rate - log_fact, yi - rate, -rate / 2,
                max(abs(yi * mi), rate, log_fact), max(yi, rate), rate / 2,
            ]
    return out[:3], out[3:]


def test_gaussian_closed_form():
    mu = np.array([-1.5, -0.2, 0.0, 0.8, 2.1])
    var = np.array([0.05, 0.3, 1.0, 1.7, 0.6])
    y = np.array([-1.0, 0.3, 0.1, 1.2, 1.9])
    lik = Gaussian(np.log(0.7))
    got = lik.expected_loglik(y, mu, var)
    s2 = 0.7
    ref = -0.5 * np.log(2 * np.pi * s2) - ((y - mu) ** 2 + var) / (2 * s2)
    assert np.allclose(got, ref, atol=1e-13)


def test_poisson_closed_form_oracle():
    y, mu, s = _poisson_grid()
    (ref, _, _), (scale, _, _) = _poisson_reference(y, mu, s)
    got = Poisson().expected_loglik(y, mu, s)
    assert np.max(np.abs(got - ref) / scale) <= 1e-13


def test_poisson_gradients_match_closed_form():
    y, mu, s = _poisson_grid()
    (_, ref_mu, ref_s), (_, scale_mu, scale_s) = _poisson_reference(y, mu, s)
    gmu, gvar = Poisson().expected_loglik_grads(y, mu, s)
    assert np.max(np.abs(gmu - ref_mu) / scale_mu) <= 1e-13
    assert np.max(np.abs(gvar - ref_s) / scale_s) <= 1e-13


def test_monte_carlo_cross_check():
    rng = np.random.default_rng(11)
    n_mc = 1_000_000
    mu, var = 0.4, 0.9
    f = mu + np.sqrt(var) * rng.standard_normal(n_mc)

    g = Gaussian(np.log(0.5))
    y = 0.7
    s2 = g.noise_variance
    vals = -0.5 * np.log(2 * np.pi * s2) - 0.5 * (y - f) ** 2 / s2
    se = vals.std() / np.sqrt(n_mc)
    est = vals.mean()
    exact = g.expected_loglik(np.array([y]), np.array([mu]), np.array([var]))[0]
    assert abs(est - exact) < 3 * se

    p = Poisson()
    y = 3.0
    vals = y * f - np.exp(f) - gammaln(y + 1.0)
    se = vals.std() / np.sqrt(n_mc)
    est = vals.mean()
    exact = p.expected_loglik(np.array([y]), np.array([mu]), np.array([var]))[0]
    assert abs(est - exact) < 3 * se


def test_gradients_by_finite_differences():
    y = np.array([1.0, 0.0, 4.0])
    mu0 = np.array([0.2, -0.7, 1.1])
    var0 = np.array([0.4, 0.9, 0.2])
    for lik in (Gaussian(np.log(0.6)), Poisson()):
        gmu, gvar = lik.expected_loglik_grads(y, mu0, var0)
        fd_mu = central_diff(
            lambda m: float(np.sum(lik.expected_loglik(y, m, var0))), mu0
        )
        fd_var = central_diff(
            lambda v: float(np.sum(lik.expected_loglik(y, mu0, v))), var0
        )
        assert np.max(np.abs(gmu - fd_mu)) < 1e-6
        assert np.max(np.abs(gvar - fd_var)) < 1e-6


def test_gaussian_noise_parameter_gradient():
    y = np.array([0.5, -1.0, 2.0])
    mu = np.array([0.2, -0.5, 1.5])
    var = np.array([0.3, 0.8, 0.1])
    lik = Gaussian(np.log(0.4))
    gp = lik.expected_loglik_param_grads(y, mu, var)
    assert gp.shape == (1, 3)

    def total(theta):
        lik.set_params(theta)
        out = float(np.sum(lik.expected_loglik(y, mu, var)))
        return out

    fd = central_diff(total, lik.get_params())
    lik.set_params(np.array([np.log(0.4)]))
    assert abs(gp.sum() - fd[0]) < 1e-7


def test_poisson_has_no_parameters():
    lik = Poisson()
    assert lik.n_params == 0
    assert lik.get_params().size == 0
    assert lik.param_names() == []


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    y=st.floats(-5.0, 5.0),
    mu=st.floats(-5.0, 5.0),
    s=st.floats(0.0, 100.0),
    log_noise=st.floats(-5.0, 5.0),
)
def test_expected_loglik_is_concave_in_the_variance(y, mu, s, log_noise):
    # dE/ds <= 0, which the dense bound's square root of -dE/ds relies on:
    # -1 / (2 sigma^2) for the Gaussian, and -e^{mu + s/2} / 2 for the Poisson
    args = (np.array([y]), np.array([mu]), np.array([s]))
    for lik in (Gaussian(log_noise), Poisson()):
        assert lik.expected_loglik_grads(*args)[1][0] <= 0.0
