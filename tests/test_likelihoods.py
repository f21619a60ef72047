"""Expected log-likelihood terms against independent oracles.

Three cross-checks pin the quadrature machinery down:
  * the Gaussian case has a closed form, so routing it through the generic
    Gauss-Hermite path must reproduce that form;
  * the Poisson case with a log link also has a closed form,
    E[y f - e^f - log y!] = y mu - e^{mu + var/2} - log y!,
    because e^f is lognormal;
  * both must agree with a plain Monte Carlo average within 3 standard
    errors at a million samples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from addgp import Gaussian, Poisson, QuadratureRule
from addgp.likelihoods import (
    quadrature_expected_loglik,
    quadrature_expected_loglik_grads,
)
from conftest import central_diff


def _grid():
    mu = np.array([-1.5, -0.2, 0.0, 0.8, 2.1])
    var = np.array([0.05, 0.3, 1.0, 1.7, 0.6])
    return mu, var


def test_gaussian_closed_form():
    mu, var = _grid()
    y = np.array([-1.0, 0.3, 0.1, 1.2, 1.9])
    lik = Gaussian(np.log(0.7))
    got = lik.expected_loglik(y, mu, var)
    s2 = 0.7
    ref = -0.5 * np.log(2 * np.pi * s2) - ((y - mu) ** 2 + var) / (2 * s2)
    assert np.allclose(got, ref, atol=1e-13)


def test_gaussian_quadrature_agrees_with_closed_form():
    mu, var = _grid()
    y = np.array([-1.0, 0.3, 0.1, 1.2, 1.9])
    lik = Gaussian(np.log(0.7))
    q = quadrature_expected_loglik(lik, y, mu, var)
    # the integrand is quadratic in f, so 20-point Gauss-Hermite is exact
    assert np.allclose(q, lik.expected_loglik(y, mu, var), atol=1e-12)
    gq = quadrature_expected_loglik_grads(lik, y, mu, var)
    ga = lik.expected_loglik_grads(y, mu, var)
    assert np.allclose(gq[0], ga[0], atol=1e-10)
    assert np.allclose(gq[1], ga[1], atol=1e-10)


def test_poisson_closed_form_oracle():
    mu, var = _grid()
    y = np.array([0.0, 1.0, 2.0, 5.0, 3.0])
    lik = Poisson()
    got = lik.expected_loglik(y, mu, var)
    ref = y * mu - np.exp(mu + 0.5 * var) - gammaln(y + 1.0)
    assert np.max(np.abs(got - ref)) < 1e-10


def test_poisson_gradients_match_closed_form():
    mu, var = _grid()
    y = np.array([0.0, 1.0, 2.0, 5.0, 3.0])
    lik = Poisson()
    gmu, gvar = lik.expected_loglik_grads(y, mu, var)
    assert np.allclose(gmu, y - np.exp(mu + 0.5 * var), atol=1e-9)
    assert np.allclose(gvar, -0.5 * np.exp(mu + 0.5 * var), atol=1e-9)


def test_monte_carlo_cross_check():
    rng = np.random.default_rng(11)
    n_mc = 1_000_000
    mu, var = 0.4, 0.9
    f = mu + np.sqrt(var) * rng.standard_normal(n_mc)

    g = Gaussian(np.log(0.5))
    y = 0.7
    vals = g.log_density(np.full(n_mc, y), f)
    se = vals.std() / np.sqrt(n_mc)
    est = vals.mean()
    exact = g.expected_loglik(np.array([y]), np.array([mu]), np.array([var]))[0]
    assert abs(est - exact) < 3 * se

    p = Poisson()
    y = 3.0
    vals = p.log_density(np.full(n_mc, y), f)
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


def test_quadrature_rule_integrates_polynomials():
    # a Q-point Gauss-Hermite rule is exact for polynomials up to 2Q-1;
    # checked on E[f^4] for a non-standard Gaussian
    rule = QuadratureRule.gauss_hermite(20)
    mu, var = 0.7, 1.3
    nodes = mu + np.sqrt(2 * var) * rule.nodes
    est = float(np.sum(rule.weights * nodes**4)) / np.sqrt(np.pi)
    exact = mu**4 + 6 * mu**2 * var + 3 * var**2
    assert abs(est - exact) < 1e-10


def test_negative_variance_is_treated_as_zero():
    # upstream clamps protect the likelihoods, but the quadrature helper
    # itself must not produce NaNs from tiny negative variances
    lik = Poisson()
    y = np.array([2.0])
    val = quadrature_expected_loglik(lik, y, np.array([0.3]), np.array([-1e-15]))
    ref = quadrature_expected_loglik(lik, y, np.array([0.3]), np.array([0.0]))
    assert np.isfinite(val[0])
    assert np.allclose(val, ref)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    y=st.floats(-5.0, 5.0),
    mu=st.floats(-5.0, 5.0),
    s=st.floats(0.0, 100.0),
    log_noise=st.floats(-5.0, 5.0),
)
def test_expected_loglik_is_concave_in_the_variance(y, mu, s, log_noise):
    # dE/ds <= 0, which the dense bound's square root of -dE/ds relies on:
    # -1 / (2 sigma^2) for the Gaussian, and positive Gauss-Hermite weights
    # times -exp(f) / 2 for the Poisson
    args = (np.array([y]), np.array([mu]), np.array([s]))
    for lik in (Gaussian(log_noise), Poisson()):
        assert lik.expected_loglik_grads(*args)[1][0] <= 0.0
