import math
import tracemalloc

import numpy as np
import pytest

from tiltlab.rmt_exact import MAX_TILT, log_moment_mn, weighted_central_moments, weighted_mean

from oracles import (
    asymptotic_mn,
    central_moment_fd,
    cumulants_to_central_moments,
    euler_gamma_series,
    fj_derivative_sum,
    harmonic,
    log_mn_barnes,
    psi1_sum_oracle,
)


def haar_cumulants(n, j_max):
    """Cumulants Q_1..Q_j_max of log|Z| under plain Haar: the exact report's cumulant sums at k = 0."""
    return weighted_central_moments(n, 0.0, j_max).cumulant_sums


def test_log_moment_zero_tilt():
    for n in (1, 7, 500):
        assert log_moment_mn(n, 0.0) == 0.0


def test_log_moment_hand_value():
    # Gamma(1)Gamma(3)/Gamma(2)^2 = 2
    assert log_moment_mn(1, 2) == pytest.approx(math.log(2.0), abs=1e-14)


def test_log_moment_telescoping_oracle():
    # prod (j+1)/j telescopes to N+1
    for n in (1, 2, 17, 160, 1000, 10**9):
        assert math.exp(log_moment_mn(n, 2)) == pytest.approx(n + 1, rel=1e-12)


def test_log_moment_general_path_matches_integer_path():
    # log M_N is continuous in s: a tilt epsilon off an even integer must
    # land next to the telescoped product
    for n in (5, 80, 400):
        a = log_moment_mn(n, 2.0 + 1e-9)
        b = log_moment_mn(n, 2)
        assert a == pytest.approx(b, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("n", [1, 80, 10**4, 10**9])
def test_log_moment_and_mean_against_barnes_g_closed_form(n):
    # the small-j recurrences and the telescoped tail, against an independent closed form
    for s in ("0.37", "1", "2", "3.3", "12.7", "64", "80", "200"):
        log_mn = log_mn_barnes(n, s)
        assert log_moment_mn(n, float(s)) == pytest.approx(log_mn, rel=1e-12, abs=0)
        mean = log_mn_barnes(n, s, order=1)
        assert weighted_mean(n, float(s) / 2) == pytest.approx(mean, rel=1e-12, abs=0)


def test_exact_moments_allocate_nothing_sized_by_n():
    tracemalloc.start()
    try:
        weighted_central_moments(10**7, 0.5, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_asymptotic_ratio_check():
    n = 10**4
    # M_N(2) = N + 1 against the leading form N^1
    assert log_moment_mn(n, 2) - asymptotic_mn(n, 1) == pytest.approx(
        math.log(1 + 1.0 / n), abs=1e-12
    )
    assert asymptotic_mn(123, 0) == 0.0
    assert asymptotic_mn(123, 1) == pytest.approx(math.log(123.0), abs=1e-12)


def test_asymptotic_rejects_non_integer():
    with pytest.raises(ValueError):
        asymptotic_mn(100, 0.5)


def test_cumulants_first_vanishes():
    for n in (1, 10, 1000):
        assert haar_cumulants(n, 3)[0] == 0.0


def test_cumulant_q2_single_matrix():
    assert haar_cumulants(1, 2)[1] == pytest.approx(math.pi**2 / 12, abs=1e-13)


def test_cumulant_q2_growth_oracle():
    # Q2 = (1/2) sum psi'(i); the sum equals H_N + N * tail(zeta(2)) exactly
    n = 10**4
    q2 = haar_cumulants(n, 2)[1]
    assert q2 == pytest.approx(0.5 * psi1_sum_oracle(n), rel=1e-9)
    gamma = euler_gamma_series()
    assert abs(q2 - 0.5 * math.log(n) - (1 + gamma) / 2) < 0.01


def test_weighted_mean_zero_tilt():
    for n in (1, 3, 999):
        assert weighted_mean(n, 0.0) == 0.0


def test_weighted_mean_harmonic_oracle():
    # psi(j+2) - psi(j+1) = 1/(j+1) telescopes to H_{N+1} - 1
    for n in (1, 3, 64, 1000, 10**4):
        assert weighted_mean(n, 1) == pytest.approx(harmonic(n + 1) - 1.0, abs=1e-12)


def test_weighted_mean_log_growth():
    n = 10**4
    gamma = euler_gamma_series()
    offset = weighted_mean(n, 1) - math.log(n)
    assert abs(offset - (gamma - 1)) < 1e-3  # k log N + O_k(1), constant gamma-1


def test_fj_first_derivative_is_weighted_mean():
    for n, k in ((10, 1), (200, 2), (50, 0.5)):
        assert fj_derivative_sum(n, k, 1) == pytest.approx(weighted_mean(n, k), abs=1e-12)


def test_fj_second_derivative_tracks_half_log():
    values = [fj_derivative_sum(n, 1, 2) - 0.5 * math.log(n) for n in (100, 1000, 10**4)]
    assert max(values) - min(values) < 0.02  # bounded offset, (1/2) log N + O_k(1)
    assert all(abs(v) < 2.0 for v in values)


def test_fj_third_derivative_bounded():
    values = [abs(fj_derivative_sum(n, 1, 3)) for n in (100, 1000, 10**4)]
    assert all(v < 1.0 for v in values)
    assert abs(values[-1] - values[-2]) < 0.01  # settled, no growth


def test_weighted_central_moments_normalization():
    rep = weighted_central_moments(50, 1.0, 6)
    assert rep.central_moments[0] == 1.0
    assert rep.central_moments[1] == 0.0
    assert rep.central_moments[2] > 0


def test_weighted_variance_growth():
    vals = [
        weighted_central_moments(n, 1.0, 2).central_moments[2] - 0.5 * math.log(n)
        for n in (100, 1000, 10**4)
    ]
    assert max(vals) - min(vals) < 0.02


def test_kurtosis_trend_to_gaussian():
    ratios = []
    for n in (100, 1000, 10**4):
        rep = weighted_central_moments(n, 1.0, 4)
        m = rep.central_moments
        ratios.append(m[4] / m[2] ** 2)
    assert abs(ratios[-1] - 3.0) < 0.05
    assert abs(ratios[-1] - 3.0) < abs(ratios[0] - 3.0)


def test_two_route_identity_subset():
    # full grid is in the acceptance suite; spot-check here
    for n_size, k in ((20, 0), (50, 1), (20, 2)):
        rep = weighted_central_moments(n_size, float(k), 5)
        for order in (2, 3, 4, 5):
            fd = central_moment_fd(n_size, k, order)
            assert rep.central_moments[order] == pytest.approx(fd, rel=1e-6)


def test_moment_cumulant_duality_zero_tilt():
    for n_size in (5, 40, 300):
        kappas = haar_cumulants(n_size, 8)
        expected = cumulants_to_central_moments(kappas, 8)
        rep = weighted_central_moments(n_size, 0.0, 8)
        for order in range(9):
            assert rep.central_moments[order] == pytest.approx(
                expected[order], rel=1e-10, abs=1e-10
            )


def test_log_convexity_in_tilt():
    grid = np.arange(0.0, 6.01, 0.5)
    for n_size in (1, 2, 7, 33, 120, 500):
        vals = np.array([log_moment_mn(n_size, float(s)) for s in grid])
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second > -1e-10)


def test_odd_standardized_moment_decay():
    prev = None
    for n_size in (100, 1000, 10**4, 10**5):
        rep = weighted_central_moments(n_size, 1.0, 3)
        m = rep.central_moments
        skew = abs(m[3]) / m[2] ** 1.5
        if prev is not None:
            assert skew < prev
        prev = skew


@pytest.mark.parametrize(
    "field, args",
    [
        ("k", (5, math.nan, 4)),
        ("k", (5, math.inf, 4)),
        ("N", (math.nan, 1.0, 4)),
        ("n_max", (5, 1.0, math.nan)),
    ],
)
def test_tilt_spec_rejects_non_finite(field, args):
    # the spec (N, k, n_max) of weighted_central_moments; the error names the bad field
    with pytest.raises(ValueError, match=f"^{field} must be"):
        weighted_central_moments(*args)


def test_tilt_spec_guards():
    with pytest.raises(ValueError, match="^N must be"):
        weighted_central_moments(0, 1.0, 4)
    with pytest.raises(ValueError, match="^k must be"):
        weighted_central_moments(10, -1.0, 4)
    with pytest.raises(ValueError, match="^n_max must be an integer"):
        weighted_central_moments(10, 1.0, 13)
    # n_max is checked before any work, so the kernel's own order check never names it
    for n_max in (4.5, math.nan):
        with pytest.raises(ValueError, match="^n_max must be an integer"):
            weighted_central_moments(10, 1.0, n_max)
    # N beyond 2^53 is no longer exact as a float; the small-c recurrence grows with k
    with pytest.raises(ValueError, match="N must be an integer in"):
        weighted_central_moments(2**53 + 1, 1.0, 4)
    with pytest.raises(ValueError, match="k must be in"):
        weighted_central_moments(10, MAX_TILT * 1.5, 4)
    with pytest.raises(ValueError, match="s = 2k must be in"):
        log_moment_mn(10, 3.0 * MAX_TILT)
    assert math.isfinite(weighted_central_moments(2**53, MAX_TILT, 12).log_mn)
    with pytest.raises(ValueError):
        fj_derivative_sum(10, 1.0, 0)
