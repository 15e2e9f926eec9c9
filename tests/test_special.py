import math

import numpy as np
import pytest

from tiltlab.special import (
    digamma,
    digamma_diff,
    gaussian_central_moment,
    log_barnes_g,
    log_gamma,
    polygamma,
    polygamma_series_vec,
)

from oracles import euler_gamma_series, zeta3_series

ABS_TOL = 1e-12


def test_log_gamma_identities():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=ABS_TOL)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=ABS_TOL)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=ABS_TOL)


def test_digamma_at_one_matches_series_gamma():
    gamma = euler_gamma_series()
    assert digamma(1.0) == pytest.approx(-gamma, abs=1e-10)
    assert digamma(2.0) == pytest.approx(1.0 - gamma, abs=1e-10)


def test_digamma_recurrence_pair():
    j = 7
    assert digamma(j + 2.0) - digamma(j + 1.0) == pytest.approx(0.125, abs=ABS_TOL)


def test_polygamma_reference_values():
    assert polygamma(1, 1.0) == pytest.approx(math.pi**2 / 6, abs=ABS_TOL)
    assert polygamma(1, 2.0) == pytest.approx(math.pi**2 / 6 - 1.0, abs=ABS_TOL)
    assert polygamma(2, 1.0) == pytest.approx(-2.0 * zeta3_series(), abs=1e-10)


def test_recurrence_residuals_random_arguments():
    rng = np.random.default_rng(123)
    x = 10.0 ** rng.uniform(-1, 3, size=1000)
    for xi in x:
        assert abs(digamma(xi + 1.0) - digamma(xi) - 1.0 / xi) < ABS_TOL * max(1.0, 1.0 / xi)
        assert abs(log_gamma(xi + 1.0) - log_gamma(xi) - math.log(xi)) < 1e-11 * max(
            1.0, abs(math.log(xi))
        )
    for m in range(1, 7):
        for xi in x[:100]:
            step = (-1.0) ** m * math.factorial(m) / xi ** (m + 1)
            resid = polygamma(m, xi + 1.0) - polygamma(m, xi) - step
            assert abs(resid) < 1e-10 * max(1.0, abs(step))


def test_digamma_matches_log_gamma_finite_difference():
    rng = np.random.default_rng(7)
    h = 1e-5
    eps = np.finfo(float).eps
    for xi in 10.0 ** rng.uniform(-0.5, 3, size=200):
        fd = (log_gamma(xi + h) - log_gamma(xi - h)) / (2 * h)
        # truncation h^2 psi'''/6 plus rounding floor of the lgamma pair
        truncation_scale = abs(polygamma(3, xi)) / 4.0
        rounding = 10.0 * eps * (abs(log_gamma(xi)) + 4.0) / h
        assert abs(digamma(xi) - fd) < max(ABS_TOL, h * h * truncation_scale, rounding)


def test_digamma_diff_consistency():
    for x, d in ((0.3, 4.2), (2.0, 0.5), (50.0, 3.0), (1e4, 1.0), (3.0, 7)):
        direct = digamma(x + d) - digamma(x)
        assert digamma_diff(x, d) == pytest.approx(direct, abs=1e-11)


def test_polygamma_vectorized_matches_scalar():
    x = np.linspace(45.0, 800.0, 13)
    for m in (1, 3, 5, 9):
        vec = polygamma_series_vec(m, x)
        for xi, vi in zip(x, vec):
            assert vi == pytest.approx(polygamma(m, float(xi)), rel=1e-13)


def test_barnes_g_recurrence_values():
    assert log_barnes_g(1) == 0.0
    assert log_barnes_g(2) == 0.0
    assert log_barnes_g(3) == 0.0
    assert log_barnes_g(4) == pytest.approx(math.log(2.0), abs=ABS_TOL)
    # recurrence oracle: G(5) = Gamma(4) G(4) = 6 * 2
    assert log_barnes_g(5) == pytest.approx(math.log(12.0), abs=ABS_TOL)
    # one step further, G(n+1) = Gamma(n) G(n)
    for n in range(2, 12):
        assert log_barnes_g(n + 1) == pytest.approx(
            log_gamma(float(n)) + log_barnes_g(n), abs=1e-11
        )


def test_gaussian_central_moment_values():
    from fractions import Fraction

    assert gaussian_central_moment(3, 17.0) == 0.0
    assert gaussian_central_moment(2, 1.7) == pytest.approx(1.7)
    assert gaussian_central_moment(4, 2.0) == pytest.approx(3 * 4.0)
    for n in range(4, 13, 2):
        # exact ratio identity: dyadic floats stay exact through powers,
        # and Fractions make it exact for arbitrary rationals
        v = 0.5
        ratio = gaussian_central_moment(n, v) / gaussian_central_moment(n - 2, v)
        assert ratio == (n - 1) * v
        vq = Fraction(73, 100)
        ratio_q = gaussian_central_moment(n, vq) / gaussian_central_moment(n - 2, vq)
        assert ratio_q == (n - 1) * vq


def test_domain_errors():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)
    with pytest.raises(ValueError):
        digamma(-2.0)
    with pytest.raises(ValueError):
        polygamma(0, 1.0)
    with pytest.raises(ValueError):
        polygamma(1, -1.0)
    with pytest.raises(ValueError):
        log_barnes_g(0)
    with pytest.raises(ValueError):
        gaussian_central_moment(-1, 1.0)
    with pytest.raises(ValueError):
        gaussian_central_moment(2, -1.0)
