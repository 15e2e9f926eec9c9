import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab import zeta_eval, zeta_lab
from tiltlab.cue import SeedSpec
from tiltlab.estimator import weighted_moments
from tiltlab.zeta_lab import (
    PrimeWindow,
    ScanSpec,
    WeightedHistogram,
    default_window,
    dirichlet_poly_many,
    mertens_l,
    mu_alpha,
    prime_count_bound,
    scan_stream,
    sieve_primes,
    weighted_scan,
)

from oracles import odd_only_sieve, trial_division_primes


def test_sieve_small():
    assert list(sieve_primes(10)) == [2, 3, 5, 7]
    assert list(sieve_primes(1)) == []
    assert list(sieve_primes(2)) == [2]


def test_sieve_against_trial_division():
    assert list(sieve_primes(100)) == trial_division_primes(100)
    assert len(sieve_primes(100)) == 25


def test_sieve_against_independent_sieve():
    assert len(sieve_primes(10**6)) == 78498
    assert len(sieve_primes(10**7)) == 664579
    assert list(sieve_primes(10**4)) == odd_only_sieve(10**4)


@settings(max_examples=200, deadline=None)
@given(
    limit=st.integers(-3, 2500),
    lo=st.integers(-2, 2500) | st.floats(-2.0, 2500.0),
    cap=st.none() | st.integers(0, 400),
    segment=st.integers(1, 40),
)
def test_sieve_window_matches_trial_division(limit, lo, cap, segment):
    # segments of a few odd numbers put many segment edges inside (lo, limit]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeta_lab, "SIEVE_SEGMENT", segment)
        got = sieve_primes(limit, lo=lo, cap=cap)
    want = [p for p in trial_division_primes(max(limit, 0)) if p > lo][:cap]
    assert got.dtype == np.int64
    assert got.tolist() == want


# pi(10^j), j = 1..12
PRIME_COUNTS = (4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534, 455052511, 4118054813, 37607912018)


def test_prime_count_bound_covers_known_counts():
    for j, count in enumerate(PRIME_COUNTS, start=1):
        bound = prime_count_bound(0, 10**j)
        assert count <= bound < 1.3 * count + 3
    # every odd number of (2, 7] is prime: the bound is met exactly
    assert prime_count_bound(2, 7) == 3 == len(sieve_primes(7, lo=2))
    assert prime_count_bound(1, 7) == 4 == len(sieve_primes(7, lo=1))
    assert prime_count_bound(10, 10) == prime_count_bound(10, 3) == 0


@settings(max_examples=200, deadline=None)
@given(lo=st.integers(0, 10**6), width=st.integers(0, 5000), segment=st.integers(1, 40))
def test_sieve_fills_windows_within_the_bound(lo, width, segment):
    # short windows high up, where the Montgomery-Vaughan and Dusart terms bind,
    # and windows whose count sits at the bound, cut into many segments
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeta_lab, "SIEVE_SEGMENT", segment)
        got = sieve_primes(lo + width, lo=lo)
    assert got.size <= prime_count_bound(lo, lo + width)
    numbers = np.arange(max(lo + 1, 2), lo + width + 1)
    divisors = np.array(trial_division_primes(1000))
    composite = ((numbers[:, None] % divisors == 0) & (numbers[:, None] != divisors)).any(axis=1)
    assert got.tolist() == numbers[~composite].tolist()


def test_sieve_raises_when_the_bound_is_too_small(monkeypatch):
    monkeypatch.setattr(zeta_lab, "prime_count_bound", lambda lo, hi: 24)
    with pytest.raises(RuntimeError, match="than the bound 24"):
        sieve_primes(100)
    # a cap at or below the buffer stops the sieve instead: nothing is lost
    assert sieve_primes(100, cap=24).tolist() == trial_division_primes(100)[:24]


def test_window_sieve_holds_one_copy_of_its_output():
    sieve_primes(10**4)  # warm the base primes' path outside the traced region
    tracemalloc.start()
    try:
        window = PrimeWindow.from_bounds(1, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output is written in place: no list of per-segment pieces to concatenate
    assert window.primes.size == 664579
    assert peak < window.primes.nbytes + 3 * 2**20


def test_window_order_check_runs_in_chunks():
    sieve_primes(10**4)  # warm the base primes' path outside the traced region
    peaks = []
    for build in (
        lambda: sieve_primes(10**8, lo=1, cap=zeta_lab.PRIME_COUNT_CAP + 1),
        lambda: PrimeWindow.from_bounds(1, 10**8),
    ):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one bool per prime would add 5.5 MiB for the 5,761,455 primes up to 1e8
    assert peaks[1] <= peaks[0] + 2**19


def test_bounds_and_heights_are_checked_before_sieving(monkeypatch):
    def never_sieve(*args, **kwargs):
        raise AssertionError("sieved before the bounds were checked")

    monkeypatch.setattr(zeta_lab, "sieve_primes", never_sieve)
    for lo, hi, text in (
        (-5.0, 1e10, "(-5.0, 10000000000.0]"),
        (7.0, 7.0, "(7.0, 7.0]"),
        (math.nan, 10.0, "(nan, 10.0]"),
        (1.0, 1e13, "hi = 1e+13 is above the sieve limit"),
    ):
        with pytest.raises(ValueError) as info:
            PrimeWindow.from_bounds(lo, hi)
        assert text in str(info.value)
    # [T, 2T], and t + alpha for a weight, must stay under the evaluator's 1e8 ceiling
    for T, kwargs in ((6e7, {}), (1e300, {}), (5e7, dict(k=1, alpha=0.5)), (5e7 + 0.25, {})):
        with pytest.raises(ValueError, match=re.escape(f"T = {T:g}")):
            ScanSpec(T=T, samples=100, window=(1.0, 1e10), **kwargs)
    window = PrimeWindow(lo=1, hi=10, primes=np.array([2, 3, 5, 7]))
    for kwargs in (dict(k=0, alpha=0.5), dict(k=1, alpha=-0.5), dict(k=1)):
        assert ScanSpec(T=5e7, samples=100, window=window, **kwargs).window is window


def test_mu_alpha_allocates_chunks_not_windows():
    window = PrimeWindow.from_bounds(1, 10**7)
    tracemalloc.start()
    try:
        values = mu_alpha(window, [0.01, 0.3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (2,)
    assert peak < 2 * 2**20


def test_dirichlet_poly_allocates_cache_sized_blocks():
    window = PrimeWindow.from_bounds(1, 10**6)
    t = np.linspace(1e5, 2e5, 200)
    tracemalloc.start()
    try:
        dirichlet_poly_many(t, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_dirichlet_poly_chunks_a_large_window_in_bounded_memory():
    window = PrimeWindow.from_bounds(1, 10**7)  # 664,579 primes: six chunks
    t = np.array([1e5, 1.5e5 + 0.3, 2e5])
    tracemalloc.start()
    try:
        values = dirichlet_poly_many(t, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the window's own 5.1 MiB array: one 2 MiB block, its phases, and one
    # chunk's logs and amplitudes; whole-window copies took 35.6 MiB
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"
    p = window.primes.astype(float)
    want = [np.sum(np.exp(-1j * ti * np.log(p)) / np.sqrt(p)) for ti in t]
    assert np.abs(values - want).max() < 1e-12 * np.sum(1.0 / np.sqrt(p))


def test_dirichlet_poly_values_do_not_depend_on_the_block_size(monkeypatch):
    window = PrimeWindow.from_bounds(1, 3000)
    t = np.random.default_rng(3).uniform(10, 1e3, size=(7, 9))
    p = window.primes.astype(float)
    want = np.vectorize(lambda ti: np.sum(p ** (-0.5 - 1j * ti)))(t)
    got = [dirichlet_poly_many(t, window)]
    for entries in (1, 430, 10**6):
        monkeypatch.setattr(zeta_lab, "DIRICHLET_ENTRIES", entries)
        got.append(dirichlet_poly_many(t, window))
        assert np.array_equal(got[-1], got[0])
    assert np.abs(got[0] - want).max() < 1e-11


def test_high_window_sieves_in_bounded_memory():
    lo, hi = 10**10 - 10**6, 10**10
    sieve_primes(10**5)  # the base primes' sieve, outside the traced region
    tracemalloc.start()
    try:
        window = PrimeWindow.from_bounds(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 1 MiB segment mask, an output sized for 2y/ln y ~ 145k primes (43k
    # found) and the base primes; a mask over (0, hi] would be 10 GB
    assert peak < 4 * 2**20
    assert not window.truncated
    # both ends of the window against trial division by the primes up to sqrt(hi)
    divisors = np.array(odd_only_sieve(10**5), dtype=np.int64)
    for numbers in (np.arange(lo + 1, lo + 2001), np.arange(hi - 1999, hi + 1)):
        composite = np.zeros(numbers.size, dtype=bool)
        for d in divisors:
            composite |= numbers % d == 0
        assert np.array_equal(window.primes[np.isin(window.primes, numbers)], numbers[~composite])


def test_sieve_rejects_limits_above_the_base_prime_bound():
    for hi in (zeta_lab.SIEVE_LIMIT + 1, 1e20, 1e300):
        with pytest.raises(ValueError, match="sieve limit"):
            PrimeWindow.from_bounds(1, hi)


def test_from_bounds_stops_at_the_prime_count_cap():
    window = PrimeWindow.from_bounds(1, 1e10)
    assert window.primes.size == zeta_lab.PRIME_COUNT_CAP == 10**7
    assert window.hi == 179_424_673.0 == window.primes[-1]  # the 10^7-th prime
    assert window.truncated
    assert not PrimeWindow.from_bounds(1, 179_424_673).truncated
    # the streamed pass stops at the same prime, with the same sums
    extent = {}
    assert mu_alpha((1, 1e10), [0.0, 0.5], extent=extent).tobytes() == mu_alpha(window, [0.0, 0.5]).tobytes()
    assert extent == {"lo": 1.0, "hi": 179_424_673.0, "count": 10**7, "truncated": True}


def test_prime_window_membership():
    w = PrimeWindow.from_bounds(10, 60)
    assert list(w.primes) == [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not w.truncated
    with pytest.raises(ValueError):
        PrimeWindow(lo=10, hi=5, primes=np.array([7], dtype=np.int64))
    with pytest.raises(ValueError):
        PrimeWindow(lo=1, hi=10, primes=np.array([3, 2], dtype=np.int64))
    with pytest.raises(ValueError):
        PrimeWindow(lo=1, hi=10, primes=np.array([2, 11], dtype=np.int64))


def test_mertens_small_window():
    w = PrimeWindow.from_bounds(1, 10)
    assert mertens_l(w) == pytest.approx(1.0 / 2 + 1.0 / 3 + 1.0 / 5 + 1.0 / 7, abs=1e-15)


def test_mertens_constant_at_desk_scale():
    w = PrimeWindow.from_bounds(1, 10**6)
    target = math.log(math.log(10**6)) + 0.26149721
    assert abs(mertens_l(w) - target) < 0.01


def test_mertens_additivity():
    a = PrimeWindow.from_bounds(1, 50)
    b = PrimeWindow.from_bounds(50, 400)
    c = PrimeWindow.from_bounds(1, 400)
    assert mertens_l(a) + mertens_l(b) == pytest.approx(mertens_l(c), abs=1e-12)


def test_mu_alpha_zero_is_mertens():
    for hi in (5000, 2 * 10**6):  # one chunk and three
        w = PrimeWindow.from_bounds(1, hi)
        assert mu_alpha(w, 0.0) == mertens_l(w)


@pytest.mark.parametrize("chunk", [None, 1, 7, 1000])
def test_mu_alpha_of_many_alphas_is_each_alone(monkeypatch, chunk):
    # 2e6 holds 148,933 primes: three chunks of 2^16 at the default size
    w = PrimeWindow.from_bounds(1, 2 * 10**6 if chunk is None else 3000)
    if chunk is not None:
        monkeypatch.setattr(zeta_lab, "MU_CHUNK", chunk)
    alphas = [0.01, -0.3, 0.0, 0.99]
    values = mu_alpha(w, alphas)
    assert values.dtype == np.float64 and values.shape == (4,)
    for a, v in zip(alphas, values):
        alone = mu_alpha(w, a)
        assert isinstance(alone, float) and v == alone
    assert mu_alpha(w, np.array(alphas[1:3])).tolist() == values[1:3].tolist()
    assert mu_alpha(w, []).shape == (0,)


def test_mu_alpha_rejects_shifts_outside_the_unit_interval():
    w = PrimeWindow.from_bounds(1, 100)
    for alpha in (1.0, -1.5, 1e300, [0.1, 2.0], math.nan):
        with pytest.raises(ValueError, match=r"\|alpha\| must be < 1"):
            mu_alpha(w, alpha)
    with pytest.raises(ValueError, match="1-d"):
        mu_alpha(w, [[0.1]])


def test_mu_alpha_empty_window_is_zero():
    assert mu_alpha(PrimeWindow.from_bounds(8, 10), 0.3) == 0.0


def _streamed_and_materialized(lo, hi, alphas):
    extent = {}
    streamed = mu_alpha((lo, hi), alphas, extent=extent)
    window = PrimeWindow.from_bounds(lo, hi)
    assert extent == {"lo": window.lo, "hi": window.hi, "count": window.primes.size, "truncated": window.truncated}
    return streamed, mu_alpha(window, alphas)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "lo, hi, segment, chunk",
    [
        (1, 2e6, None, None),  # two 1 MiB segments, three chunks of 2^16
        (0, 1e5, None, None),
        (2.5, 3.5e4, None, None),  # 2 is out, the window starts inside the first segment
        (1e6 + 0.5, 3e6, None, None),
        (5000, 3e5, 1000, 777),  # 148 segments and 33 chunks whose edges never line up
        (1, 4e4, 37, 5),
        (10, 11, 3, 2),  # empty
    ],
)
def test_streamed_mu_alpha_is_the_materialized_value(monkeypatch, threads, lo, hi, segment, chunk):
    monkeypatch.setenv("TILTLAB_THREADS", threads)
    if segment is not None:
        monkeypatch.setattr(zeta_lab, "SIEVE_SEGMENT", segment)
        monkeypatch.setattr(zeta_lab, "MU_CHUNK", chunk)
    alphas = [0.0, 0.01, -0.37, 0.99]
    streamed, materialized = _streamed_and_materialized(lo, hi, alphas)
    assert streamed.tobytes() == materialized.tobytes()
    assert mu_alpha((lo, hi), 0.01) == materialized[1]


@pytest.mark.parametrize("extra", [0, 1, 57])
def test_streamed_mu_alpha_stops_at_the_prime_count_cap(monkeypatch, extra):
    # 12 segments of 500 odd numbers hold the 1,438 primes up to 11,999: a cap of that
    # many clips the window at a segment edge, one more or 57 more inside the next segment
    monkeypatch.setattr(zeta_lab, "SIEVE_SEGMENT", 500)
    monkeypatch.setattr(zeta_lab, "MU_CHUNK", 300)
    cap = sieve_primes(11_999).size + extra
    monkeypatch.setattr(zeta_lab, "PRIME_COUNT_CAP", cap)
    for lo, hi in ((1, 2e4), (1, 11_999), (1, 10**6)):
        streamed, materialized = _streamed_and_materialized(lo, hi, [0.2, 0.0])
        assert streamed.tobytes() == materialized.tobytes()
    extent = {}
    mu_alpha((1, 10**6), 0.5, extent=extent)
    assert extent["count"] == cap and extent["truncated"]
    assert extent["hi"] == sieve_primes(10**6)[cap - 1]


def test_streamed_mu_alpha_never_holds_its_window():
    mu_alpha((1, 10**5), 0.1)  # warm the path outside the traced region
    for threads in ("1", "2"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("TILTLAB_THREADS", threads)
            tracemalloc.start()
            try:
                values = mu_alpha((1, 5e7), [0.01, 0.001, 0.0])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the 3,001,134 primes up to 5e7 alone take 24 MB; this holds the 1 MiB mask,
        # two segments' primes, the chunk buffers and the base primes
        assert peak < 8 * 2**20, f"{threads} threads: peak {peak / 2**20:.2f} MiB"
        assert values[2] == pytest.approx(math.log(math.log(5e7)) + 0.2615, abs=1e-3)


def test_mu_alpha_pairwise_sum_matches_fsum():
    w = PrimeWindow.from_bounds(1, 10**6)
    p = w.primes.astype(float)
    for alpha in (0.0, 0.001, 0.01, 0.5, 0.99, -0.3):
        exact = math.fsum(np.cos(alpha * np.log(p)) / p)
        assert mu_alpha(w, alpha) == pytest.approx(exact, rel=1e-13, abs=0)


def test_mu_alpha_even_in_alpha():
    w = PrimeWindow.from_bounds(1, 3000)
    for alpha in (0.01, 0.3, 0.77):
        assert mu_alpha(w, alpha) == mu_alpha(w, -alpha)


def test_mu_alpha_large_shift_band():
    # when |alpha| log(hi) > 1 the -log|alpha| regime is visible
    w = PrimeWindow.from_bounds(1, 10**6)
    for alpha in (0.2, 0.3, 0.5):
        assert abs(mu_alpha(w, alpha) + math.log(alpha)) < 2.0


def test_mu_alpha_small_shift_tracks_mertens():
    # |alpha| log(hi) <= 1 keeps mu_alpha within O(1) of L
    w = PrimeWindow.from_bounds(1, 10**6)
    for alpha in (0.01, 0.001):
        assert abs(mu_alpha(w, alpha) - mertens_l(w)) < 0.1


def test_mu_alpha_lipschitz_bound():
    w = PrimeWindow.from_bounds(1, 2000)
    bound = mertens_l(w) * math.log(float(w.primes[-1]))
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rng.uniform(-0.9, 0.9, size=2)
        assert abs(mu_alpha(w, a) - mu_alpha(w, b)) <= bound * abs(a - b) + 1e-12


def test_dirichlet_poly_empty_window():
    w = PrimeWindow(lo=24.0, hi=28.0, primes=np.empty(0, dtype=np.int64))
    assert dirichlet_poly_many(np.array([1.0]), w)[0] == 0.0


def test_dirichlet_poly_real_at_zero():
    w = PrimeWindow.from_bounds(1, 100)
    value = dirichlet_poly_many(np.array([0.0]), w)[0]
    assert value.imag == pytest.approx(0.0, abs=1e-14)
    assert value.real == pytest.approx(
        math.fsum(1.0 / math.sqrt(p) for p in w.primes), abs=1e-12
    )


def test_dirichlet_poly_conjugate_symmetry():
    w = PrimeWindow.from_bounds(1, 500)
    rng = np.random.default_rng(11)
    t = rng.uniform(-50, 50, size=100)
    vals_pos = dirichlet_poly_many(t, w)
    vals_neg = dirichlet_poly_many(-t, w)
    assert np.abs(vals_neg - np.conj(vals_pos)).max() < 1e-11


def test_histogram_mass_invariant_enforced():
    with pytest.raises(ValueError):
        WeightedHistogram(
            bin_edges=np.array([0.0, 1.0, 2.0]),
            weighted_counts=np.array([1.0, 1.0]),
            total_weight=5.0,
            raw_count=3,
        )
    hist = WeightedHistogram(
        bin_edges=np.array([0.0, 1.0, 2.0]),
        weighted_counts=np.array([1.0, 1.0]),
        total_weight=2.5,
        raw_count=3,
        underflow_weight=0.25,
        overflow_weight=0.25,
    )
    assert hist.total_weight == 2.5
    for side in ("underflow_weight", "overflow_weight"):
        with pytest.raises(ValueError):
            WeightedHistogram(
                bin_edges=np.array([0.0, 1.0]),
                weighted_counts=np.array([1.0]),
                total_weight=1.0,
                raw_count=1,
                **{side: -1e-13},
            )


def test_overflow_weight_is_the_weight_above_the_top_edge():
    window = PrimeWindow.from_bounds(1, 100)
    spec = ScanSpec(T=300.0, samples=2000, k=1, m=0, window=window, seed=SeedSpec(5))
    hist, _ = weighted_scan(spec)
    stream = scan_stream(spec)
    log_w = stream.log_weights
    weights = np.exp(log_w - log_w.max())
    assert hist.overflow_weight >= 0.0
    assert hist.overflow_weight == float(weights[stream.values > hist.bin_edges[-1]].sum())


def test_default_window_rejects_heights_without_primes():
    for T in (10.0, 300.0, 656.1, 1097.0, 2960.0):
        with pytest.raises(ValueError, match="empty"):
            default_window(T)
    for T, p in ((656.2, 7), (1096.0, 7), (2961.0, 11), (1e4, 11)):
        assert p in default_window(T).primes


def test_scan_spec_validation():
    with pytest.raises(ValueError):
        ScanSpec(T=5, samples=500)
    with pytest.raises(ValueError):
        ScanSpec(T=100.0, samples=50)
    with pytest.raises(ValueError):
        ScanSpec(T=100.0, samples=500, alpha=1.5)
    with pytest.raises(ValueError):
        ScanSpec(T=100.0, samples=500, m=5)
    with pytest.raises(ValueError, match=r"\(8, 10\] holds no prime"):
        ScanSpec(T=5000.0, samples=200, window=PrimeWindow.from_bounds(8, 10))
    spec = ScanSpec(T=1e4, samples=500)
    assert spec.window.lo == pytest.approx(math.log(1e4))


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("T", dict(T=math.nan)),
        ("T", dict(T=math.inf)),
        ("samples", dict(samples=math.nan)),
        ("alpha", dict(alpha=math.nan)),
    ],
)
def test_scan_spec_rejects_non_finite(field, kwargs):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ScanSpec(**{"T": 1e4, "samples": 500, **kwargs})


def test_scan_stream_determinism_and_range():
    spec = ScanSpec(T=5e3, samples=300, seed=SeedSpec(4))
    a = scan_stream(spec)
    b = scan_stream(spec)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.values, b.values)
    assert np.all((a.t >= 5e3) & (a.t <= 1e4))


def test_selberg_baseline_smoke():
    hist, report = weighted_scan(ScanSpec(T=5e3, samples=500, k=0, seed=SeedSpec(8)))
    # Selberg CLT: mean near 0 on the scale of the spread
    assert abs(report.weighted_mean) < 3.0 * math.sqrt(report.central_moments[2])
    mass = hist.weighted_counts.sum() + hist.underflow_weight + hist.overflow_weight
    assert mass == pytest.approx(hist.total_weight, rel=1e-9)
    assert report.ess == pytest.approx(500.0)


def test_proxy_positively_correlated():
    _, report = weighted_scan(ScanSpec(T=1e5, samples=1000, k=0, seed=SeedSpec(15)))
    assert report.proxy_correlation is not None
    assert report.proxy_correlation > 0.0


def test_scan_log_weights_zero_tilt_and_shift_reuse():
    window = PrimeWindow.from_bounds(1, 100)
    spec = ScanSpec(T=5000.0, samples=100, k=0, m=2, alpha=0.3, window=window, seed=SeedSpec(3))
    stream = scan_stream(spec)
    assert np.array_equal(stream.log_weights, np.zeros(spec.samples))
    for m, alpha in ((0, 0.0), (2, 0.0), (1, 0.3)):
        shifted = scan_stream(dataclasses.replace(spec, k=1, m=m, alpha=alpha))
        assert np.array_equal(shifted.t, stream.t)
        ref = zeta_eval.zeta_line(stream.t + alpha, m)[m]
        assert np.allclose(shifted.log_weights, 2.0 * np.log(np.abs(ref)), rtol=0, atol=1e-10)


def test_unshifted_scan_evaluates_zeta_once(monkeypatch):
    # unshifted, one zeta_line call gives the values (row 0) and the weights (row m);
    # a shift takes exactly one more call, at t + alpha
    calls = []

    def counted(t, m=0):
        calls.append((np.size(t), m))
        return zeta_eval.zeta_line(t, m)

    for alpha in (0.0, 0.05):
        base = ScanSpec(T=5000.0, samples=500, k=1, alpha=alpha, seed=SeedSpec(23))
        values_m0 = scan_stream(base).values
        with monkeypatch.context() as mp:
            mp.setattr(zeta_lab, "zeta_line", counted)
            for m in (0, 1, 2):
                spec = dataclasses.replace(base, m=m)
                stream = scan_stream(spec)
                calls.clear()
                hist, report = weighted_scan(spec)
                assert calls == ([(spec.samples, 0), (spec.samples, m)] if alpha else [(spec.samples, m)])
                finite = np.isfinite(stream.values)
                scale = np.abs(values_m0[finite])
                assert np.all(np.abs(stream.values[finite] - values_m0[finite]) <= 1e-12 * scale)
                log_w = stream.log_weights
                ref = weighted_moments(stream.values[finite], log_w[finite], 4)
                assert np.array_equal(report.log_weights, ref.log_weights)
                for name in ("ess", "weighted_mean", "central_moments", "standard_errors"):
                    assert getattr(report, name) == getattr(ref, name)
                weights = np.exp(log_w - log_w.max())
                counts = np.histogram(stream.values, hist.bin_edges, weights=weights)[0]
                assert np.array_equal(hist.weighted_counts, counts)
            calls.clear()
            scan_stream(dataclasses.replace(base, k=0, m=2))
            assert calls == [(base.samples, 0)]


def test_weighted_scan_with_derivative_weight_smoke():
    hist, report = weighted_scan(ScanSpec(T=4e3, samples=200, k=1, m=1, seed=SeedSpec(77)))
    assert np.isfinite(report.weighted_mean)
    assert report.ess >= 1.0
