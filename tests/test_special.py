import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab.rmt_exact import _midpoint_sum
from tiltlab.special import MAX_ORDER, log_gamma_jet

from oracles import asymptotic_mn, euler_gamma_series, zeta3_series

ABS_TOL = 1e-12


def psi(m, x):
    """psi^(m)(x) = (m+1)! a_{m+1}(x), from the kernel."""
    return math.factorial(m + 1) * float(log_gamma_jet(x, m + 1)[m + 1])


def log_gamma(x):
    return float(log_gamma_jet(x, 0)[0])


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.5, 7.3, 13.0, 40.0, 123.4, 1e4])
def test_jet_matches_mpmath(x):
    jet = log_gamma_jet(np.array([x]), 20)[:, 0]
    with mp.workdps(30):
        exact = [mp.loggamma(x)] + [mp.polygamma(r - 1, x) / mp.factorial(r) for r in range(1, 21)]
    for r in range(21):
        # log Gamma(1) is exactly 0: only there does the absolute floor act
        assert jet[r] == pytest.approx(float(exact[r]), rel=1e-13, abs=1e-15), r


def test_jet_shape_and_scalar_argument():
    assert log_gamma_jet(3.0, 4).shape == (5,)
    grid = np.linspace(0.5, 60.0, 12).reshape(3, 4)
    jets = log_gamma_jet(grid, 6)
    assert jets.shape == (7, 3, 4)
    assert np.allclose(jets[:, 1, 2], log_gamma_jet(grid[1, 2], 6), rtol=1e-14, atol=0)


@settings(max_examples=80, deadline=None)
@given(x=st.floats(0.05, 1e4))
def test_jet_recurrence_property(x):
    # log Gamma(x+1) - log Gamma(x) = log x, as jets: the jet of log(x + eps)
    order = 20
    step = log_gamma_jet(np.array([x, x + 1.0]), order)
    r = np.arange(1, order + 1)
    expected = np.concatenate([[math.log(x)], (-1.0) ** (r + 1) / (r * x**r)])
    scale = np.abs(step).sum(axis=1) + np.abs(expected)
    scale[:2] += 1.0  # log Gamma and psi cancel O(1) terms near their zeros
    assert np.all(np.abs(step[:, 1] - step[:, 0] - expected) <= 1e-13 * scale)


def test_log_gamma_identities():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=ABS_TOL)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=ABS_TOL)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=ABS_TOL)


def test_digamma_at_one_matches_series_gamma():
    gamma = euler_gamma_series()
    assert psi(0, 1.0) == pytest.approx(-gamma, abs=1e-10)
    assert psi(0, 2.0) == pytest.approx(1.0 - gamma, abs=1e-10)


def test_digamma_recurrence_pair():
    j = 7
    assert psi(0, j + 2.0) - psi(0, j + 1.0) == pytest.approx(0.125, abs=ABS_TOL)


def test_polygamma_reference_values():
    assert psi(1, 1.0) == pytest.approx(math.pi**2 / 6, abs=ABS_TOL)
    assert psi(1, 2.0) == pytest.approx(math.pi**2 / 6 - 1.0, abs=ABS_TOL)
    assert psi(2, 1.0) == pytest.approx(-2.0 * zeta3_series(), abs=1e-10)


def test_recurrence_residuals_random_arguments():
    rng = np.random.default_rng(123)
    x = 10.0 ** rng.uniform(-1, 3, size=1000)
    here, there = log_gamma_jet(x, 7), log_gamma_jet(x + 1.0, 7)
    for xi, a, b in zip(x, here.T, there.T):
        assert abs(b[1] - a[1] - 1.0 / xi) < ABS_TOL * max(1.0, 1.0 / xi)
        assert abs(b[0] - a[0] - math.log(xi)) < 1e-11 * max(1.0, abs(math.log(xi)))
    for m in range(1, 7):
        scale = math.factorial(m + 1)
        for xi, a, b in zip(x[:100], here.T, there.T):
            step = (-1.0) ** m * math.factorial(m) / xi ** (m + 1)
            resid = scale * b[m + 1] - scale * a[m + 1] - step
            assert abs(resid) < 1e-10 * max(1.0, abs(step))


def test_digamma_matches_log_gamma_finite_difference():
    rng = np.random.default_rng(7)
    h = 1e-5
    eps = np.finfo(float).eps
    for xi in 10.0 ** rng.uniform(-0.5, 3, size=200):
        fd = (log_gamma(xi + h) - log_gamma(xi - h)) / (2 * h)
        # truncation h^2 psi'''/6 plus rounding floor of the lgamma pair
        truncation_scale = abs(psi(3, xi)) / 4.0
        rounding = 10.0 * eps * (abs(log_gamma(xi)) + 4.0) / h
        assert abs(psi(0, xi) - fd) < max(ABS_TOL, h * h * truncation_scale, rounding)


def test_digamma_diff_consistency():
    # the midpoint sums at N = 1 are D(c) = psi(c+h) - psi(c-h) and
    # T(c) = logGamma(c+h) + logGamma(c-h) - 2 logGamma(c), with c = x + d/2, h = d/2
    for x, d in ((0.3, 4.2), (2.0, 0.5), (50.0, 3.0), (1e4, 1.0), (3.0, 7)):
        direct = psi(0, x + d) - psi(0, x)
        assert _midpoint_sum(1, x + d / 2, d / 2, slope=True) == pytest.approx(direct, abs=1e-11)
        with mp.workdps(30):
            exact = mp.loggamma(x + d) + mp.loggamma(x) - 2 * mp.loggamma(mp.mpf(x) + mp.mpf(d) / 2)
        got = _midpoint_sum(1, x + d / 2, d / 2, slope=False)
        assert got == pytest.approx(float(exact), abs=1e-11)


def test_barnes_g_recurrence_values():
    # at N = 1 asymptotic_mn(1, k) = 2 log G(1+k) - log G(1+2k), and
    # G(1) = G(2) = G(3) = 1, G(4) = 2, G(5) = 12, G(7) = 34560
    assert asymptotic_mn(1, 0) == 0.0
    assert asymptotic_mn(1, 1) == 0.0
    assert asymptotic_mn(1, 2) == pytest.approx(-math.log(12.0), abs=ABS_TOL)
    assert asymptotic_mn(1, 3) == pytest.approx(2 * math.log(2.0) - math.log(34560.0), abs=ABS_TOL)
    # one step further, G(n+1) = Gamma(n) G(n), against the kernel's log Gamma
    for k in range(1, 11):
        step = 2 * log_gamma(1.0 + k) - log_gamma(2.0 + 2 * k) - log_gamma(1.0 + 2 * k)
        assert asymptotic_mn(1, k + 1) - asymptotic_mn(1, k) == pytest.approx(step, abs=1e-11)


@pytest.mark.parametrize("x", [0.0, -1.5, -2.0, math.nan, math.inf, [3.0, -1.0]])
def test_jet_rejects_arguments_outside_its_domain(x):
    with pytest.raises(ValueError):
        log_gamma_jet(x, 1)


@pytest.mark.parametrize("order", [-1, MAX_ORDER + 1, 1.5])
def test_jet_rejects_orders_outside_its_range(order):
    with pytest.raises(ValueError):
        log_gamma_jet(1.0, order)


def test_domain_errors():
    with pytest.raises(ValueError):
        asymptotic_mn(1, 0.5)
