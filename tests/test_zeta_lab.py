import dataclasses
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab import zeta_eval, zeta_lab
from tiltlab.cue import SeedSpec
from tiltlab.estimator import weighted_moments
from tiltlab.threads import one_ahead
from tiltlab.zeta_lab import (
    ScanReport,
    ScanSpec,
    checked_alphas,
    default_window,
    dirichlet_poly,
    mu_alpha,
    scan_stream,
    weighted_scan,
)

from oracles import hurwitz_zeta, odd_only_sieve, prime_power_sum_loop, trial_division_primes


def sieved(limit, lo=0):
    """The primes of (lo, limit] from the package's segmented sieve, joined into one array."""
    return np.concatenate([np.empty(0, dtype=np.int64), *zeta_lab._prime_segments(lo, limit)])


def walked(window, chunk, ahead=False):
    """The primes `_prime_chunks` walks through a buffer of `chunk` entries, joined."""
    buffer = np.empty(chunk, dtype=np.int64)
    chunks = [buffer[:size].copy() for size in zeta_lab._prime_chunks(window, buffer, ahead)]
    assert all(piece.size == chunk for piece in chunks[:-1])
    return np.concatenate([np.empty(0, dtype=np.int64), *chunks])


def refused(lo, hi, cap):
    """The pattern of the ValueError that refuses a walk over (lo, hi] past a cap of `cap` primes."""
    return re.escape(f"the prime window ({float(lo):g}, {float(hi):g}] holds more than {cap:,} primes (PRIME_COUNT_CAP)")


def test_sieve_small():
    assert list(sieved(10)) == [2, 3, 5, 7]
    assert list(sieved(1)) == []
    assert list(sieved(2)) == [2]


def test_sieve_against_trial_division():
    assert list(sieved(100)) == trial_division_primes(100)
    assert len(sieved(100)) == 25


def test_sieve_against_independent_sieve():
    for limit, count in ((10**6, 78498), (10**7, 664579)):
        assert sum(primes.size for primes in zeta_lab._prime_segments(0, limit)) == count
    assert list(sieved(10**4)) == odd_only_sieve(10**4)


@settings(max_examples=200, deadline=None)
@given(
    limit=st.integers(-3, 2500),
    lo=st.integers(-2, 2500) | st.floats(-2.0, 2500.0),
    cap=st.none() | st.integers(1, 400),
    segment=st.integers(1, 40),
    chunk=st.integers(1, 50),
    ahead=st.booleans(),
)
def test_sieve_window_matches_trial_division(limit, lo, cap, segment, chunk, ahead):
    # segments of a few odd numbers put many segment edges inside (lo, limit], and
    # chunks of a few primes put the chunk edges anywhere inside a segment
    every = [p for p in trial_division_primes(max(limit, 0)) if p > lo]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeta_lab, "SIEVE_SEGMENT", segment)
        assert sieved(limit, lo).tolist() == every
        if cap is not None:
            mp.setattr(zeta_lab, "PRIME_COUNT_CAP", cap)
        if cap is not None and len(every) > cap:  # refused once a segment passes the cap, never clipped
            with pytest.raises(ValueError, match=re.escape(f"holds more than {cap:,} primes (PRIME_COUNT_CAP)")):
                walked((lo, limit), chunk, ahead)
            return
        got = walked((lo, limit), chunk, ahead)
    assert got.dtype == np.int64
    assert got.tolist() == every


@settings(max_examples=200, deadline=None)
@given(lo=st.integers(0, 10**6), width=st.integers(0, 5000), segment=st.integers(1, 40))
def test_sieve_fills_windows_within_the_bound(lo, width, segment):
    # short windows high up, cut into many segments
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeta_lab, "SIEVE_SEGMENT", segment)
        got = sieved(lo + width, lo)
    numbers = np.arange(max(lo + 1, 2), lo + width + 1)
    divisors = np.array(trial_division_primes(1000))
    composite = ((numbers[:, None] % divisors == 0) & (numbers[:, None] != divisors)).any(axis=1)
    assert got.tolist() == numbers[~composite].tolist()


def test_bounds_and_heights_are_checked_before_sieving(monkeypatch):
    def never_sieve(*args, **kwargs):
        raise AssertionError("sieved before the bounds were checked")

    monkeypatch.setattr(zeta_lab, "_prime_segments", never_sieve)
    for lo, hi, text in (
        (-5.0, 1e10, "(-5.0, 10000000000.0]"),
        (7.0, 7.0, "(7.0, 7.0]"),
        (math.nan, 10.0, "(nan, 10.0]"),
        (1.0, 1e13, "hi = 1e+13 is above the sieve limit"),
    ):
        for call in (
            lambda: mu_alpha((lo, hi), 0.0),
            lambda: dirichlet_poly([1.0], (lo, hi)),
            lambda: ScanSpec(T=1e4, samples=100, window=(lo, hi)),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert text in str(info.value)
    # [T, 2T], and t + alpha for a weight, must stay under the evaluator's 1e8 ceiling
    for T, kwargs in ((6e7, {}), (1e300, {}), (5e7, dict(k=1, alpha=0.5)), (5e7 + 0.25, {})):
        with pytest.raises(ValueError, match=re.escape(f"T = {T:g}")):
            ScanSpec(T=T, samples=100, window=(1.0, 1e10), **kwargs)
    # explicit bounds are checked, not sieved, when the spec is made
    for kwargs in (dict(k=0, alpha=0.5), dict(k=1, alpha=-0.5), dict(k=1)):
        window = ScanSpec(T=5e7, samples=100, window=(1, 10), **kwargs).window
        assert window == (1.0, 10.0) and all(type(bound) is float for bound in window)


def test_mu_alpha_allocates_chunks_not_windows(monkeypatch):
    monkeypatch.setenv("TILTLAB_THREADS", "1")
    mu_alpha((1, 10**5), 0.1)  # warm the path outside the traced region
    tracemalloc.start()
    try:
        values = mu_alpha((1, 10**7), [0.01, 0.3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (2,)
    # three 512 KiB chunk buffers, the 1 MiB segment mask and one segment's primes
    # (155,611 int64 in the first, 1.2 MiB) beside the base primes; the window's
    # 664,579 primes alone would take 5.1 MiB
    chunk_buffers, mask, segment_primes = 3 * zeta_lab.MU_CHUNK * 8, zeta_lab.SIEVE_SEGMENT, 155_611 * 8
    assert peak < chunk_buffers + mask + segment_primes + 2**19, f"peak {peak / 2**20:.2f} MiB"


def test_dirichlet_poly_allocates_cache_sized_blocks():
    t = np.linspace(1e5, 2e5, 200)
    tracemalloc.start()
    try:
        dirichlet_poly(t, (1, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_dirichlet_poly_chunks_a_large_window_in_bounded_memory():
    t = np.array([1e5, 1.5e5 + 0.3, 2e5])  # (1, 1e7] holds 664,579 primes: six chunks
    tracemalloc.start()
    try:
        values = dirichlet_poly(t, (1, 10**7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 2 MiB block, one chunk's amplitudes and logs, and the sieve's mask and
    # segment; whole-window copies took 35.6 MiB
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"
    p = np.array(odd_only_sieve(10**7), dtype=float)
    want = [np.sum(np.exp(-1j * ti * np.log(p)) / np.sqrt(p)) for ti in t]
    assert np.abs(values - want).max() < 1e-12 * np.sum(1.0 / np.sqrt(p))


def test_scan_prime_passes_hold_no_per_prime_array():
    # a scan over (1, 1e7] makes two passes over its 664,579 primes (a 5.1 MiB int64
    # array): mu_alpha's for the window block and L, and the proxy's Dirichlet sum
    t = np.array([1e5, 1.3e5 + 0.7, 1.6e5 + 0.1, 2e5])
    mu_alpha((1, 10**5), 0.0)  # warm the path outside the traced region
    tracemalloc.start()
    try:
        extent = {}
        mu_alpha((1, 1e7), 0.0, extent)
        dirichlet_poly(t, (1, 1e7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert extent == {"lo": 1.0, "hi": 1e7, "count": 664_579}
    # the Dirichlet pass sets the peak: its chunk buffers (amplitudes and logs, a float
    # each per prime), one complex (heights x primes) block, one sieve mask and one
    # segment's primes (155,611 int64 in the first), sieved inline
    chunk_buffers = 2 * zeta_lab.DIRICHLET_CHUNK * 8
    block = zeta_lab.DIRICHLET_ENTRIES * 16
    mask, segment_primes = zeta_lab.SIEVE_SEGMENT, 155_611 * 8
    assert peak < chunk_buffers + block + mask + segment_primes + 2**19, f"peak {peak / 2**20:.2f} MiB"


def test_dirichlet_poly_values_do_not_depend_on_the_block_size(monkeypatch):
    t = np.random.default_rng(3).uniform(10, 1e3, size=(7, 9))
    p = np.array(trial_division_primes(3000), dtype=float)
    want = np.vectorize(lambda ti: np.sum(p ** (-0.5 - 1j * ti)))(t)
    got = [dirichlet_poly(t, (1, 3000))]
    for entries in (1, 430, 10**6):
        monkeypatch.setattr(zeta_lab, "DIRICHLET_ENTRIES", entries)
        got.append(dirichlet_poly(t, (1, 3000)))
        assert np.array_equal(got[-1], got[0])
    assert np.abs(got[0] - want).max() < 1e-11


def test_high_window_sieves_in_bounded_memory():
    lo, hi = 10**10 - 10**6, 10**10
    sieved(10**5)  # the base primes' sieve, outside the traced region
    tracemalloc.start()
    try:
        extent = {}
        mu_alpha((lo, hi), 0.0, extent)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 1 MiB segment mask, its 43k primes, the chunk buffers and the base primes;
    # a mask over (0, hi] would be 10 GB
    assert peak < 4 * 2**20
    # both ends of the window against trial division by the primes up to sqrt(hi)
    primes = sieved(hi, lo)
    assert primes.size == extent["count"]
    divisors = np.array(odd_only_sieve(10**5), dtype=np.int64)
    for numbers in (np.arange(lo + 1, lo + 2001), np.arange(hi - 1999, hi + 1)):
        composite = np.zeros(numbers.size, dtype=bool)
        for d in divisors:
            composite |= numbers % d == 0
        assert np.array_equal(primes[np.isin(primes, numbers)], numbers[~composite])


def test_sieve_rejects_limits_above_the_base_prime_bound():
    for hi in (zeta_lab.SIEVE_LIMIT + 1, 1e20, 1e300):
        for call in (lambda: mu_alpha((1, hi), 0.0), lambda: zeta_lab._prime_segments(1, hi)):
            with pytest.raises(ValueError, match="sieve limit"):
                call()


def test_from_bounds_stops_at_the_prime_count_cap():
    # a walked window of 14,380,799 primes is refused once its walk passes the 10^7-th,
    # naming the window and the cap, rather than summed over the primes up to there
    with pytest.raises(ValueError, match=refused(1e9, 1.3e9, 10**7)):
        mu_alpha((1e9, 1.3e9), [0.0, 0.5])


@pytest.mark.parametrize("x, count", [(1e9, 50_847_534), (1e10, 455_052_511)])
def test_recursed_mu_alpha_past_the_cap_is_exact_and_in_the_proven_band(x, count):
    # pi(x) exactly, and mu_0 within Rosser and Schoenfeld's unconditional band
    # |sum_{p <= x} 1/p - log log x - B| < 1/(2 log^2 x) (Illinois J. Math. 1962, Thm 5)
    extent = {}
    value = mu_alpha((1, x), 0.0, extent)
    assert extent == {"lo": 1.0, "hi": x, "count": count}
    assert abs(value - math.log(math.log(x)) - 0.2614972128476428) < 1 / (2 * math.log(x) ** 2)


def test_prime_window_membership():
    assert list(sieved(60, 10)) == [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert walked((10.0, 60.0), 4).tolist() == sieved(60, 10).tolist()
    extent = {}
    mu_alpha((10.0, 60.0), 0.0, extent)
    assert extent == {"lo": 10.0, "hi": 60.0, "count": 13}


def test_mertens_small_window():
    assert mu_alpha((1, 10), 0.0) == pytest.approx(1.0 / 2 + 1.0 / 3 + 1.0 / 5 + 1.0 / 7, abs=1e-15)


def test_mertens_constant_at_desk_scale():
    target = math.log(math.log(10**6)) + 0.26149721
    assert abs(mu_alpha((1, 10**6), 0.0) - target) < 0.01


def test_mertens_additivity():
    whole = mu_alpha((1, 400), 0.0)
    assert mu_alpha((1, 50), 0.0) + mu_alpha((50, 400), 0.0) == pytest.approx(whole, abs=1e-12)


@pytest.mark.parametrize("chunk", [None, 1, 7, 1000])
def test_mu_alpha_of_many_alphas_is_each_alone(monkeypatch, chunk):
    # 2e6 holds 148,933 primes: three chunks of 2^16 at the default size
    w = (1, 2 * 10**6 if chunk is None else 3000)
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
    for alpha in (1.0, -1.5, 1e300, [0.1, 2.0], math.nan):
        with pytest.raises(ValueError, match=r"\|alpha\| must be < 1"):
            mu_alpha((1, 100), alpha)
    with pytest.raises(ValueError, match="1-d"):
        mu_alpha((1, 100), [[0.1]])


def test_mu_alpha_empty_window_is_zero():
    assert mu_alpha((8, 10), 0.3) == 0.0


def _materialized(lo, hi, alphas):
    """The walk's sums over the window's primes held at once, and the extent it should fill.

    The held primes are cut at the same MU_CHUNK edges, and each chunk is
    summed with the same numpy calls as the walk's, so the two agree to the bit.
    """
    primes = sieved(hi, lo).astype(float)
    materialized = []
    for a in np.asarray(alphas, dtype=float):
        chunks = (primes[i : i + zeta_lab.MU_CHUNK] for i in range(0, primes.size, zeta_lab.MU_CHUNK))
        materialized.append(math.fsum(float((np.cos(a * np.log(p)) * np.reciprocal(p)).sum()) for p in chunks))
    return np.array(materialized), {"lo": float(lo), "hi": float(hi), "count": primes.size}


def _streamed_and_materialized(lo, hi, alphas):
    """mu_alpha over the bounds, and the same sums over the window's primes held at once."""
    extent = {}
    streamed = mu_alpha((lo, hi), alphas, extent=extent)
    materialized, want = _materialized(lo, hi, alphas)
    assert extent == want
    return streamed, materialized


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
    # 12 segments of 500 odd numbers hold the 1,438 primes up to 11,999: at a cap of that
    # many a wider window is refused at a segment edge, at one more or 57 more inside the
    # next segment; a window of exactly `cap` primes is summed whole by both walks
    monkeypatch.setattr(zeta_lab, "SIEVE_SEGMENT", 500)
    monkeypatch.setattr(zeta_lab, "MU_CHUNK", 300)
    cap = sieved(11_999).size + extra
    monkeypatch.setattr(zeta_lab, "PRIME_COUNT_CAP", cap)
    every = sieved(10**6)
    t = np.array([30.0, 1e3 + 0.5])
    full = int(every[cap]) - 1  # the widest window from 1 that holds cap primes
    streamed, materialized = _streamed_and_materialized(1, full, [0.2, 0.0])
    assert streamed.tobytes() == materialized.tobytes()
    p = every[:cap].astype(float)
    want = [math.fsum(np.cos(ti * np.log(p)) / np.sqrt(p)) for ti in t]
    assert np.abs(dirichlet_poly(t, (1, full)).real - want).max() < 1e-12
    for hi in (full + 1, 2e4, 10**6):
        for call in (lambda: mu_alpha((1, hi), [0.2, 0.0]), lambda: dirichlet_poly(t, (1, hi))):
            with pytest.raises(ValueError, match=refused(1, hi, cap)):
                call()


def test_a_refused_walk_leaves_no_worker_thread(monkeypatch):
    # the refusal comes from the window's count, before the one-ahead sieve pipeline is
    # made, so no worker thread starts
    monkeypatch.setenv("TILTLAB_THREADS", "2")
    monkeypatch.setattr(zeta_lab, "SIEVE_SEGMENT", 500)
    monkeypatch.setattr(zeta_lab, "PRIME_COUNT_CAP", 1000)
    pipelines = []

    def recorded(stage, items):
        pipeline = one_ahead(stage, items)
        pipelines.append(pipeline.__name__)  # the name only: holding the pipeline would keep it open
        return pipeline

    monkeypatch.setattr(zeta_lab, "one_ahead", recorded)
    before, error = set(threading.enumerate()), None
    try:
        mu_alpha((1, 1e5), 0.3)
    except ValueError as exc:
        error = exc  # its traceback holds the walk's frames while the threads are listed
    assert re.fullmatch(refused(1, 1e5, 1000) + ".*", str(error))
    assert pipelines == []
    assert set(threading.enumerate()) == before


def test_a_refused_walk_sieves_only_the_base_primes(monkeypatch):
    # a window over the cap is counted by the prime-sum recursion, which sieves the primes up
    # to sqrt(hi) alone, and refused before the walk sieves a segment of it: (1e9, 1.3e9]
    # holds 14,380,799 primes, and (1e6, 2e6] holds 70,435, one more than the cap set here
    sieve, limits = zeta_lab._prime_segments, []

    def recorded(lo, limit, ahead=False):
        limits.append(limit)
        return sieve(lo, limit, ahead)

    monkeypatch.setattr(zeta_lab, "_prime_segments", recorded)
    with pytest.raises(ValueError, match=refused(1e9, 1.3e9, zeta_lab.PRIME_COUNT_CAP)):
        mu_alpha((1e9, 1.3e9), 0.0)
    assert limits and max(limits) == math.isqrt(1_300_000_000)
    monkeypatch.setattr(zeta_lab, "PRIME_COUNT_CAP", 70_434)
    for call in (lambda: mu_alpha((1e6, 2e6), [0.0, 0.5]), lambda: dirichlet_poly([30.0], (1e6, 2e6))):
        limits.clear()
        with pytest.raises(ValueError, match=refused(1e6, 2e6, 70_434)):
            call()
        assert limits and max(limits) == math.isqrt(2_000_000)


def test_streamed_mu_alpha_never_holds_its_window():
    mu_alpha((1, 10**5), 0.1)  # warm the path outside the traced region
    for threads in ("1", "2"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("TILTLAB_THREADS", threads)
            # (1, 5e7] is wider than 64 hi^(3/4) but narrower than 100 hi^(3/4),
            # so it is walked rather than recursed
            mp.setattr(zeta_lab, "RECURSION_WIDTH", 100)
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


@pytest.mark.parametrize("lo, hi", [(1, 10), (1, 2e6), (5000, 3e5), (1e6 + 0.5, 3e6), (123456.5, 3e7)])
def test_recursed_mu_alpha_is_the_walked_value(lo, hi):
    # the prime-sum recursion against the walk's sums over the held primes: a second
    # exact route, equal up to rounding, with the window's exact count; a subnormal
    # shift must not overflow the pole term -expm1(-i alpha log v)/(i alpha)
    alphas = [0.0, 0.01, -0.37, 0.99, -0.999, 5e-324]
    extent = {}
    recursed = zeta_lab._recursed_mu_alpha((float(lo), float(hi)), checked_alphas(alphas), extent)
    materialized, want = _materialized(lo, hi, alphas)
    assert extent == want
    assert np.abs(recursed - materialized).max() < 1e-13
    for a, value in zip(alphas, recursed):  # each alpha's value is the one it gets alone
        assert zeta_lab._recursed_mu_alpha((float(lo), float(hi)), checked_alphas(a), {}).tobytes() == value.tobytes()


def _never_walk(*args, **kwargs):
    raise AssertionError("the window was walked")


def test_recursed_mu_alpha_holds_no_window(monkeypatch):
    monkeypatch.setattr(zeta_lab, "_prime_chunks", _never_walk)
    mu_alpha((1, 2e7), 0.1)  # warm the path outside the traced region
    tracemalloc.start()
    try:
        extent = {}
        values = mu_alpha((1, 1e8), [0.01, 0.001, 0.0], extent)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the values of floor(1e8 / k) take 20,000 complex sums, 0.3 MiB, per recursion;
    # the window's 5,761,455 primes would take 44 MiB
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
    assert extent == {"lo": 1.0, "hi": 1e8, "count": 5_761_455}
    assert values[2] == pytest.approx(math.log(math.log(1e8)) + 0.2615, abs=1e-3)
    assert [mu_alpha((1, 1e8), a) for a in (0.01, 0.001, 0.0)] == values.tolist()


def test_recursed_mu_alpha_holds_no_window_at_the_recursion_edge(monkeypatch):
    monkeypatch.setattr(zeta_lab, "_prime_chunks", _never_walk)
    mu_alpha((1, 2e7), 0.1)  # warm the path outside the traced region
    tracemalloc.start()
    try:
        extent = {}
        mu_alpha((1, 150_002_068), [0.01, 0.001, 0.0], extent)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the values of floor(hi / k) take 24,495 complex sums, 0.37 MiB, per recursion, and the
    # 8,444,501 primes would take 64 MiB
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
    assert extent["count"] == 8_444_501  # the sieve's count


@pytest.mark.parametrize("alpha", [0.0, 1e-3, 0.5, 0.99, 5e-324])
def test_power_sums_against_mpmath(alpha):
    # sum_{2 <= n <= v} n^{-s}, s = 1 + i alpha, by a route apart from the recursion's
    # walk: zeta(s) - 1 - zeta(s, v + 1), or H_v - 1 where alpha is 0 or subnormal.  Each v
    # alone is a block whose smallest x is v, which keeps the fewest Bernoulli terms
    # (1 at 1e8); together they are one block summed with the 9 terms that x = 16 needs;
    # in arange(1026), as the recursion lays out its small values, 1024 opens a block
    import mpmath as mp

    v = [0, 1, 2, 16, 17, 1023, 1024, 1025, 10**4, 10**8, 10**10]
    alone = np.concatenate([zeta_lab._power_sums(np.array([x]), alpha) for x in v])
    together = zeta_lab._power_sums(np.array(v), alpha)
    ranged = zeta_lab._power_sums(np.arange(1026), alpha)
    assert alone[:2].tolist() == together[:2].tolist() == ranged[:2].tolist() == [0, 0]  # empty sums
    with mp.workdps(30):
        s = mp.mpc(1, alpha)
        for x, *got in zip(v[2:], alone[2:], together[2:]):
            if alpha in (0.0, 5e-324):
                ref = complex(mp.harmonic(x) - 1)
            else:
                ref = complex(mp.zeta(s) - 1 - hurwitz_zeta(s, x + 1))
            got += [ranged[x]] if x < ranged.size else []
            assert max(abs(value - ref) for value in got) <= 1e-14 * abs(ref), f"v = {x}"


PRIME_SUM_ALPHAS = [None, 0.0, -0.0, 0.01, -0.37, 0.99, -0.999, 5e-324]


@pytest.mark.parametrize(
    "x",
    [1, 7, 8, 9, 26, 27, 28, 999_999, 10**6, 10**6 + 1, 99_897_343, 464**3, 99_897_345, 10**8, 150_002_068],
)
def test_prime_power_sum_is_the_one_prime_loop(monkeypatch, x):
    # the tail's ordered scatter against the loop it replaced, byte for byte; budgets of
    # 1 and 7 entries put chunk edges between primes and inside one prime's run (a budget
    # of 1 takes about 0.8 s a call at 1e8, so it runs on the small x alone)
    base = sieved(math.isqrt(x))
    want = {a: prime_power_sum_loop(x, a, base) for a in PRIME_SUM_ALPHAS}
    runs = [(zeta_lab.PRIME_TAIL_CHUNK, PRIME_SUM_ALPHAS)]
    runs += [(budget, [None, -0.37]) for budget in (1, 7) if budget > 1 or x <= 10**6 + 1]
    for budget, alphas in runs:
        monkeypatch.setattr(zeta_lab, "PRIME_TAIL_CHUNK", budget)
        for a in alphas:
            got = zeta_lab._prime_power_sum(x, a, base)
            # the tail mimics numpy's unfused in-place multiply of one-element complex arrays;
            # on a build that fuses it (or any array multiply differently) the last bits move
            assert (type(got), got.tobytes()) == (type(want[a]), want[a].tobytes()), (
                f"budget {budget}, alpha {a}: differs from the one-prime loop; if only in the last bits, "
                "check how this numpy build fuses complex multiplies (one element in place vs longer arrays)"
            )


def test_mu_alpha_recurses_by_the_window_shape_alone(monkeypatch):
    monkeypatch.setattr(zeta_lab, "_prime_chunks", _never_walk)
    # the width alone picks the route, also past 150,002,068, above which a Rosser-Schoenfeld
    # bound on pi(hi) no longer stays under the cap: narrower than RECURSION_WIDTH hi^(3/4),
    # the window is walked
    edge = 150_002_068
    extent = {}
    mu_alpha((1, edge + 1), 0.3, extent)
    assert extent == {"lo": 1.0, "hi": edge + 1.0, "count": 8_444_501}
    with pytest.raises(AssertionError, match="walked"):
        mu_alpha((edge / 2, edge), 0.3)


def test_mu_alpha_pairwise_sum_matches_fsum():
    w = (1, 10**6)
    p = sieved(10**6).astype(float)
    for alpha in (0.0, 0.001, 0.01, 0.5, 0.99, -0.3):
        exact = math.fsum(np.cos(alpha * np.log(p)) / p)
        assert mu_alpha(w, alpha) == pytest.approx(exact, rel=1e-13, abs=0)


def test_mu_alpha_even_in_alpha():
    w = (1, 3000)
    for alpha in (0.01, 0.3, 0.77):
        assert mu_alpha(w, alpha) == mu_alpha(w, -alpha)


def test_mu_alpha_large_shift_band():
    # when |alpha| log(hi) > 1 the -log|alpha| regime is visible
    w = (1, 10**6)
    for alpha in (0.2, 0.3, 0.5):
        assert abs(mu_alpha(w, alpha) + math.log(alpha)) < 2.0


def test_mu_alpha_small_shift_tracks_mertens():
    # |alpha| log(hi) <= 1 keeps mu_alpha within O(1) of L
    w = (1, 10**6)
    for alpha in (0.01, 0.001):
        assert abs(mu_alpha(w, alpha) - mu_alpha(w, 0.0)) < 0.1


def test_mu_alpha_lipschitz_bound():
    w = (1, 2000)
    bound = mu_alpha(w, 0.0) * math.log(float(sieved(2000)[-1]))
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rng.uniform(-0.9, 0.9, size=2)
        assert abs(mu_alpha(w, a) - mu_alpha(w, b)) <= bound * abs(a - b) + 1e-12


def test_dirichlet_poly_empty_window():
    assert dirichlet_poly(np.array([1.0]), (24.0, 28.0))[0] == 0.0
    assert dirichlet_poly(np.empty((0, 3)), (1, 100)).shape == (0, 3)  # no heights


def test_dirichlet_poly_real_at_zero():
    value = dirichlet_poly(np.array([0.0]), (1, 100))[0]
    assert value.imag == pytest.approx(0.0, abs=1e-14)
    assert value.real == pytest.approx(
        math.fsum(1.0 / math.sqrt(p) for p in trial_division_primes(100)), abs=1e-12
    )


def test_dirichlet_poly_conjugate_symmetry():
    rng = np.random.default_rng(11)
    t = rng.uniform(-50, 50, size=100)
    vals_pos = dirichlet_poly(t, (1, 500))
    vals_neg = dirichlet_poly(-t, (1, 500))
    assert np.abs(vals_neg - np.conj(vals_pos)).max() < 1e-11


def test_histogram_mass_invariant_enforced():
    report = weighted_scan(ScanSpec(T=300.0, samples=200, window=(1, 100), seed=SeedSpec(6)))
    assert isinstance(report, ScanReport)
    # a value in no bin (a NaN drops out of every one), or a NaN weight
    for total in (report.total_weight + 1.0, math.nan):
        with pytest.raises(FloatingPointError, match="histogram mass"):
            dataclasses.replace(report, total_weight=total)
    moved = dataclasses.replace(
        report,
        weighted_counts=[0.0] * len(report.weighted_counts),
        underflow_weight=0.25 * report.total_weight,
        overflow_weight=0.75 * report.total_weight,
    )
    assert moved.total_weight == report.total_weight


def test_overflow_weight_is_the_weight_above_the_top_edge():
    spec = ScanSpec(T=300.0, samples=2000, k=1, m=0, window=(1, 100), seed=SeedSpec(5))
    report = weighted_scan(spec)
    stream = scan_stream(spec)
    log_w = stream.log_weights
    weights = np.exp(log_w - log_w.max())
    assert report.overflow_weight >= 0.0
    assert report.overflow_weight == float(weights[stream.values > report.bin_edges[-1]].sum())


def test_default_window_rejects_heights_without_primes():
    for T in (10.0, 300.0, 656.1, 1097.0, 2960.0):
        with pytest.raises(ValueError, match="empty"):
            default_window(T)
    for T, p in ((656.2, 7), (1096.0, 7), (2961.0, 11), (1e4, 11)):
        lo, hi = default_window(T)
        assert (lo, hi) == (math.log(T), T**0.3)
        assert p in sieved(hi, lo)


def test_scan_spec_validation(monkeypatch):
    with pytest.raises(ValueError):
        ScanSpec(T=5, samples=500)
    with pytest.raises(ValueError):
        ScanSpec(T=100.0, samples=50)
    with pytest.raises(ValueError):
        ScanSpec(T=100.0, samples=500, alpha=1.5)
    for alpha in ([0.1, 0.2], np.array([0.1])):  # mu_alpha takes many shifts; a scan has one
        with pytest.raises(ValueError, match="^alpha must be a scalar"):
            ScanSpec(T=1e4, samples=100, k=1, alpha=alpha)
    with pytest.raises(ValueError):
        ScanSpec(T=100.0, samples=500, m=5)
    # the scan's first pass finds the window empty before any zeta value is taken
    with monkeypatch.context() as mp:
        mp.setattr(zeta_lab, "zeta_line", None)
        with pytest.raises(ValueError, match=r"\(8, 10\] holds no prime"):
            weighted_scan(ScanSpec(T=5000.0, samples=200, window=(8, 10)))
    spec = ScanSpec(T=1e4, samples=500)
    assert spec.window == (math.log(1e4), 1e4**0.3)


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
    report = weighted_scan(ScanSpec(T=5e3, samples=500, k=0, seed=SeedSpec(8)))
    # Selberg CLT: mean near 0 on the scale of the spread
    assert abs(report.weighted_mean) < 3.0 * math.sqrt(report.central_moments[2])
    mass = sum(report.weighted_counts) + report.underflow_weight + report.overflow_weight
    assert mass == pytest.approx(report.total_weight, rel=1e-9)
    assert report.ess == pytest.approx(500.0)


def test_proxy_positively_correlated():
    assert weighted_scan(ScanSpec(T=1e5, samples=1000, k=0, seed=SeedSpec(15))).proxy_correlation > 0.0


def test_scan_log_weights_zero_tilt_and_shift_reuse():
    spec = ScanSpec(T=5000.0, samples=100, k=0, m=2, alpha=0.3, window=(1, 100), seed=SeedSpec(3))
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
                report = weighted_scan(spec)
                assert calls == ([(spec.samples, 0), (spec.samples, m)] if alpha else [(spec.samples, m)])
                finite = np.isfinite(stream.values)
                scale = np.abs(values_m0[finite])
                assert np.all(np.abs(stream.values[finite] - values_m0[finite]) <= 1e-12 * scale)
                log_w = stream.log_weights
                ref = weighted_moments(stream.values[finite], log_w[finite], 4)
                for name in ("ess", "weighted_mean", "central_moments", "standard_errors"):
                    assert getattr(report, name) == getattr(ref, name)
                weights = np.exp(log_w - log_w.max())
                counts = np.histogram(stream.values, report.bin_edges, weights=weights)[0]
                assert np.array_equal(report.weighted_counts, counts)
            calls.clear()
            scan_stream(dataclasses.replace(base, k=0, m=2))
            assert calls == [(base.samples, 0)]


def test_weighted_scan_with_derivative_weight_smoke():
    report = weighted_scan(ScanSpec(T=4e3, samples=200, k=1, m=1, seed=SeedSpec(77)))
    assert np.isfinite(report.weighted_mean)
    assert report.ess >= 1.0
