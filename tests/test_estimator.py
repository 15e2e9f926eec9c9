import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from tiltlab.cue import SeedSpec
from tiltlab.estimator import MomentReport, tilted_moments_mc, weighted_moments
from tiltlab.rmt_exact import weighted_central_moments, weighted_mean

from oracles import (
    bootstrap_errors_loop,
    gaussian_conformance,
    harmonic,
    weighted_ks_vs_normal,
    weighted_point_stats,
)


def test_ess_equal_weights():
    m = 1000
    values = np.linspace(-1, 1, m)
    assert weighted_moments(values, np.zeros(m), 0).ess == pytest.approx(m)
    assert weighted_moments(values, np.full(m, -3.7), 0).ess == pytest.approx(m)


def test_ess_single_dominant():
    lw = np.full(50, -np.inf)
    lw[17] = 2.0
    with pytest.warns(RuntimeWarning, match="effective sample size"):
        report = weighted_moments(np.linspace(-1, 1, 50), lw, 0)
    assert report.ess == pytest.approx(1.0)


def test_ess_zero_tilt_is_sample_count():
    values = np.linspace(-1, 1, 2048)
    assert weighted_moments(values, 0.0 * values, 0).ess == 2048.0


def test_ess_rejects_empty_and_all_zero():
    with pytest.raises(ValueError):
        weighted_moments([], [], 0)
    with pytest.raises(ValueError):
        weighted_moments(np.zeros(4), np.full(4, -np.inf), 0)


def test_reweighting_algebraic_identity():
    # self-normalized estimate must equal sum(w g)/sum(w) on fixed arrays
    values = np.array([0.2, -1.0, 3.0, 0.5, 0.5])
    log_w = np.array([0.0, 1.0, -2.0, 0.3, 0.0])
    w = np.exp(log_w)
    expected_mean = np.sum(w * values) / np.sum(w)
    with pytest.warns(RuntimeWarning, match="effective sample size"):
        report = weighted_moments(values, log_w, 2)
    assert report.low_ess
    assert report.weighted_mean == pytest.approx(expected_mean, rel=1e-14)
    expected_m2 = np.sum(w * (values - expected_mean) ** 2) / np.sum(w)
    assert report.central_moments[2] == pytest.approx(expected_m2, rel=1e-14)
    assert report.sample_count == 5
    assert report.central_moments[0] == 1.0
    assert report.central_moments[1] == 0.0


def test_zero_tilt_reduces_to_plain_moments():
    rng = np.random.default_rng(4)
    values = rng.normal(2.0, 1.3, size=5000)
    report = weighted_moments(values, np.zeros_like(values), 4)
    assert report.weighted_mean == pytest.approx(values.mean(), rel=1e-12)
    assert report.central_moments[2] == pytest.approx(values.var(), rel=1e-12)
    assert report.ess == pytest.approx(5000.0)


def test_permutation_invariance_bit_identical():
    rng = np.random.default_rng(9)
    values = rng.normal(size=4000)
    log_w = 0.5 * values
    a = weighted_moments(values, log_w, 4)
    perm = rng.permutation(4000)
    b = weighted_moments(values[perm], log_w[perm], 4)
    assert a.weighted_mean == b.weighted_mean
    assert a.central_moments == b.central_moments
    assert a.standard_errors == b.standard_errors
    assert a.standardized == b.standardized
    assert a.ess == b.ess
    assert a.mean_weight == b.mean_weight


@pytest.mark.parametrize("tilt", [0.0, 1.5])
def test_point_estimate_matches_direct_pass(tilt):
    # tilt 0: zero log-weights; tilt 1.5: importance weights 1.5 * value
    rng = np.random.default_rng(12)
    values = rng.normal(0.4, 1.2, size=1001)
    log_w = tilt * values
    for n_max in range(9):
        report = weighted_moments(values, log_w, n_max)
        assert len(report.standard_errors) == len(report.standardized_errors) == n_max + 1
        # the point estimate against one direct pass over the whole sample
        point = weighted_point_stats(values, log_w, n_max)
        central = point[2 : 2 + max(n_max - 1, 0)]
        assert report.weighted_mean == pytest.approx(point[0], rel=1e-12)
        assert report.mean_weight == pytest.approx(math.exp(point[1]), rel=1e-12)
        for n, m_n in enumerate(central, start=2):  # odd orders sit near 0: scale by m_2^{n/2}
            assert abs(report.central_moments[n] - m_n) <= 1e-12 * central[0] ** (0.5 * n)
        for n, s in enumerate(point[2 + len(central) :], start=3):
            assert abs(report.standardized[n] - s) <= 1e-12 * max(1.0, abs(s))
        p = np.exp(log_w - log_w.max())
        p /= p.sum()
        assert report.ess == pytest.approx(1.0 / np.sum(p * p), rel=1e-12)


def _normal_moment(k):
    return 0.0 if k % 2 else float(math.prod(range(k - 1, 0, -2)))


def _normal_expectation(coeffs):
    """E P(y) for y ~ N(0, 1) and the polynomial P with these coefficients (lowest first)."""
    return sum(c * _normal_moment(k) for k, c in enumerate(coeffs))


def test_errors_match_normal_asymptotics():
    # unweighted N(mu, sigma^2): the influence function of each estimate is sigma^p P(z)
    # for a polynomial P of z = y / sigma, and its exact asymptotic SE is
    # sigma^p sqrt(E P^2 / m): mean z, m_2 z^2 - 1, m_3 z^3 - 3z, m_4 z^4 - 3,
    # standardized 3rd z^3 - 3z and 4th z^4 - 6z^2 + 3, giving sigma sqrt(1/m),
    # sigma^2 sqrt(2/m), sigma^3 sqrt(6/m), sigma^4 sqrt(96/m), sqrt(6/m) and sqrt(24/m).
    # The delta SE is the root mean square of m draws of sigma^p P(z) over sqrt(m), so its
    # relative sampling noise is sqrt(E P^4 - (E P^2)^2) / (2 E P^2 sqrt(m)): 0.22% for the
    # mean up to 4.0% for the standardized 4th moment at m = 1e5.  Each SE must sit
    # within 4 of those noise units of its exact value.
    m, mu, sigma = 10**5, 0.3, 1.7
    values = np.random.default_rng(17).normal(mu, sigma, size=m)
    report = weighted_moments(values, np.zeros(m), 4)
    cells = [
        (report.standard_errors[1], 1, [0, 1]),
        (report.standard_errors[2], 2, [-1, 0, 1]),
        (report.standard_errors[3], 3, [0, -3, 0, 1]),
        (report.standard_errors[4], 4, [-3, 0, 0, 0, 1]),
        (report.standardized_errors[3], 0, [0, -3, 0, 1]),
        (report.standardized_errors[4], 0, [3, 0, -6, 0, 1]),
    ]
    for got, power, coeffs in cells:
        var = _normal_expectation(np.polynomial.polynomial.polypow(coeffs, 2))
        fourth = _normal_expectation(np.polynomial.polynomial.polypow(coeffs, 4))
        noise = math.sqrt(fourth - var**2) / (2.0 * var * math.sqrt(m))
        exact = sigma**power * math.sqrt(var / m)
        assert abs(got / exact - 1.0) < 4.0 * noise, (power, coeffs, got, exact)


def test_errors_match_bootstrap_on_a_weighted_skewed_cell():
    # Beta(2, 5) draws under log-weights -4 v: skewness about 0.9, so the p m_{p-1} y term
    # of every IF_p and the chain rule of both standardized moments carry weight; ESS about
    # 3000.  A 400-resample bootstrap SE carries relative noise about 1/sqrt(2 * 400) = 3.5%
    # (near-normal replicates), so the two routes must agree within 4 of those units.
    values = np.random.default_rng(2).beta(2.0, 5.0, size=4000)
    log_w = -4.0 * values
    report = weighted_moments(values, log_w, 4)
    assert report.ess >= 300
    ses, std_ses, mw_se = bootstrap_errors_loop(values, log_w, 4, 400, 2)
    tol = 4.0 / math.sqrt(2 * 400)
    np.testing.assert_allclose(report.standard_errors[1:], ses[1:], rtol=tol, atol=0)
    np.testing.assert_allclose(report.standardized_errors[3:], std_ses[3:], rtol=tol, atol=0)
    assert report.mean_weight_se == pytest.approx(mw_se, rel=tol)


# SHA-1 of the float64 bytes of the point fields [weighted_mean, *central_moments,
# *standardized, mean_weight, ess], recorded when the errors were bootstrap errors, and of
# the error fields standard_errors + standardized_errors + [mean_weight_se] of the delta
# method; the reduction cells concatenate orders 0..8
POINT_DIGESTS = {
    0.0: "fe1e1f8c52169bd5cc5dfbde9541f8cb4415345a",
    1.5: "ddad5c1af8a22a372d58d36cccc1e95f9410b468",
    "split": "552754b3f3137298bd63f2a2dc23c4a87542a11d",
    "cmv": "f5e6cece41d127043ef62f74bb5321488aa49b39",
    "qr": "b6c178b574c344966c7a19b35497fe70f7c94100",
}
ERROR_DIGESTS = {
    0.0: "d614c1565535f46b673b937467e1b0f9de4573d9",
    1.5: "718492e260a98a1c717047acdc217dc97fa6e79d",
    "split": "c7f123064a75b5fcde9a8e3bdd3cf925c14ea695",
    "cmv": "e7ff05ab274ed85ae7d75f866eac86641d28b3e6",
    "qr": "6b4ae2e6cc619e640a8eecccd59e076b35be44b6",
}


def _digests(reports):
    point, errors = [], []
    for r in reports:
        point += [r.weighted_mean, *r.central_moments, *r.standardized, r.mean_weight, r.ess]
        errors += r.standard_errors + r.standardized_errors + [r.mean_weight_se]
    return tuple(hashlib.sha1(np.array(f, dtype=float).tobytes()).hexdigest() for f in (point, errors))


def test_reduction_matches_recorded_digests():
    # the point estimate keeps every bit it had beside the bootstrap; the errors are pinned
    values = np.random.default_rng(12).normal(0.4, 1.2, size=1001)
    got = {tilt: _digests(weighted_moments(values, tilt * values, n_max) for n_max in range(9)) for tilt in (0.0, 1.5)}
    for sampler in ("split", "cmv", "qr"):
        got[sampler] = _digests([tilted_moments_mc(20, 1, 4, 5000, SeedSpec(3), sampler=sampler)])
    assert {cell: point for cell, (point, _) in got.items()} == POINT_DIGESTS
    assert {cell: errors for cell, (_, errors) in got.items()} == ERROR_DIGESTS


def test_vanishing_spread_leaves_non_finite_standardized_moments():
    # m_2 ~ 1e-160 is positive, but m_2^{n/2} underflows from n = 5 on: no ZeroDivisionError
    values = 1e-80 * np.random.default_rng(3).normal(size=1000)
    report = weighted_moments(values, np.zeros_like(values), 8)
    assert report.central_moments[2] > 0
    assert not all(math.isfinite(s) for s in report.standardized[5:])
    assert len(report.standardized) == len(report.standardized_errors) == 9


def test_errors_finite_when_three_points_carry_the_weight():
    # three points carry all the weight; e^-800 underflows under their shift, so the other
    # seventeen enter every influence sum as exact zeros
    values = np.arange(20.0)
    log_w = np.full(20, -800.0)
    log_w[[3, 11, 17]] = 0.0
    with pytest.warns(RuntimeWarning, match="effective sample size"):
        report = weighted_moments(values, log_w, 2)
    assert all(math.isfinite(se) and se > 0 for se in report.standard_errors[1:])
    assert math.isfinite(report.mean_weight_se)


def test_reduction_memory_is_bounded():
    # 2e5 draws at n_max = 4, each whole-sample float64 array 1.5 MiB: the sorted values
    # and log-weights, the w y^p table (five rows, 7.6 MiB), and while the errors are
    # taken IF_2, the current IF_p and its temporaries; measured at 16.8 MiB, with neither
    # the sort permutation nor a whole-sample values - mean alive beside the table.  The
    # 1.2 MiB margin is less than one more whole-sample array.
    rng = np.random.default_rng(4)
    values = rng.normal(size=200000)
    log_w = 2.0 * values
    tracemalloc.start()
    try:
        weighted_moments(values, log_w, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_se_scaling():
    # doubling the sample count shrinks the SEs by about 1/sqrt(2);
    # single-run ratios fluctuate, so average over seed families and orders
    ratios = []
    for n, k, seed in ((20, 0.0, 100), (20, 1.0, 101), (50, 0.0, 102)):
        small = tilted_moments_mc(n, k, 4, 20000, SeedSpec(seed), sampler="split")
        large = tilted_moments_mc(n, k, 4, 40000, SeedSpec(seed), sampler="split")
        for idx in (1, 2, 3):
            ratios.append(large.standard_errors[idx] / small.standard_errors[idx])
    mean_ratio = sum(ratios) / len(ratios)
    assert 0.8 / math.sqrt(2.0) < mean_ratio < 1.2 / math.sqrt(2.0)


def test_mc_k0_matches_baseline_mean():
    report = tilted_moments_mc(50, 0.0, 4, 10**5, SeedSpec(7), sampler="split")
    assert abs(report.weighted_mean) < 3 * report.standard_errors[1]
    exact = weighted_central_moments(50, 0.0, 2).central_moments[2]
    assert abs(report.central_moments[2] - exact) < 3 * report.standard_errors[2]


def test_mc_weighted_mean_matches_telescoped_exact():
    report = tilted_moments_mc(20, 1.0, 4, 2 * 10**5, SeedSpec(21), sampler="split")
    target = harmonic(21) - 1.0
    assert abs(report.weighted_mean - target) < 3 * report.standard_errors[1]


def test_mc_normalizer_cross_check():
    report = tilted_moments_mc(20, 1.0, 2, 10**5, SeedSpec(5), sampler="cmv")
    assert abs(report.mean_weight - 21.0) < 3 * report.mean_weight_se


def test_exact_mc_agreement_primary_invariant():
    """Exact/MC agreement within 3 SEs over {20, 50} x {0, 1, 2}.

    Runs on the exact tilted sampler, "split".  Importance sampling from
    Haar (sampler="cmv") misses the (50, 2) cell by 17, 4.7 and 29 SE
    for orders 2, 3 and 4 at this seed: the tilted bulk there sits more
    than four Haar sigmas into the tail, the effective sample size is 37
    of the 5e5 draws, and the standard errors cannot see the missing
    mass.
    """
    import warnings as _warnings

    samples_for = {0.0: 3 * 10**4, 1.0: 3 * 10**4, 2.0: 5 * 10**5}
    failures = []
    for n in (20, 50):
        for k in (0.0, 1.0, 2.0):
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore", RuntimeWarning)
                report = tilted_moments_mc(
                    n, k, 4, samples_for[k], SeedSpec(1000 + n), sampler="split"
                )
            exact = weighted_central_moments(n, k, 4)
            dev_mean = abs(report.weighted_mean - exact.mu_weighted)
            if not dev_mean < 3 * report.standard_errors[1]:
                failures.append((n, k, "mean", dev_mean / report.standard_errors[1]))
            for order in (2, 3, 4):
                dev = abs(report.central_moments[order] - exact.central_moments[order])
                if not dev < 3 * report.standard_errors[order]:
                    failures.append((n, k, order, dev / report.standard_errors[order]))
    assert not failures, f"cells beyond 3 SEs: {failures}"


def test_low_ess_flagged_not_raised():
    with pytest.warns(RuntimeWarning, match="effective sample size"):
        report = tilted_moments_mc(50, 3.0, 2, 1000, SeedSpec(3), sampler="cmv")
    assert report.low_ess


def test_conformance_null_case_synthetic_gaussian():
    exact = weighted_central_moments(30, 1.0, 4)
    rng = np.random.default_rng(77)
    values = rng.normal(exact.mu_weighted, math.sqrt(exact.central_moments[2]), size=50000)
    log_weights = np.zeros_like(values)
    conf = gaussian_conformance(weighted_moments(values, log_weights, 4), values, log_weights, 30, 1.0)
    assert abs(conf.mean_deviation) < 3
    assert abs(conf.variance_deviation) < 3
    for dev in conf.standardized_deviations.values():
        assert abs(dev) < 3
    assert conf.ks_statistic < 1.63 / math.sqrt(50000) * 1.5


def test_weighted_ks_against_wrong_law_is_large():
    rng = np.random.default_rng(5)
    values = rng.normal(0.0, 1.0, size=20000)
    ks = weighted_ks_vs_normal(values, np.zeros_like(values), 1.0, 1.0)
    assert ks > 0.2


def test_preconditions():
    with pytest.raises(ValueError):
        tilted_moments_mc(10, 1.0, 4, 999, SeedSpec(1), sampler="split")
    with pytest.raises(ValueError):
        tilted_moments_mc(10, 1.0, 9, 2000, SeedSpec(1), sampler="split")
    with pytest.raises(ValueError):
        tilted_moments_mc(10, -1.0, 4, 2000, SeedSpec(1), sampler="split")
    with pytest.raises(ValueError, match='sampler="cmv"'):
        tilted_moments_mc(10, 0.5, 4, 2000, SeedSpec(1), sampler="split")
    with pytest.raises(ValueError):
        weighted_moments(np.ones(10), np.ones(11), 2)
    with pytest.raises(ValueError, match="n_max"):
        weighted_moments(np.ones(10), np.zeros(10), 2.5)
    with pytest.raises(ValueError, match="n_max"):
        tilted_moments_mc(10, 1, 2.5, 2000, SeedSpec(1), sampler="split")
    for k in (math.nan, math.inf):
        for sampler in ("cmv", "qr"):
            with pytest.raises(ValueError, match="tilt k"):
                tilted_moments_mc(10, k, 4, 2000, SeedSpec(1), sampler=sampler)


def test_report_invariants_enforced():
    fields = dict(
        sample_count=10,
        ess=5.0,
        weighted_mean=0.0,
        central_moments=[1.0, 0.0],
        standard_errors=[0.0, 0.1],
        standardized=[1.0, 0.0],
        standardized_errors=[0.0, 0.0],
        mean_weight=1.0,
        mean_weight_se=0.0,
        low_ess=False,
    )
    with pytest.raises(ValueError, match="ess 20.0"):
        MomentReport(**{**fields, "ess": 20.0})
