import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from tiltlab import zeta_eval
from tiltlab.zeta_eval import (
    EM_AUTO_MAX_T,
    RS_MAX_T,
    _C_RELATIONS,
    _PRIMES,
    _em_tail,
    _em_terms,
    _RS_MAX_N,
    _factor_levels,
    _phi_derivative,
    _prime_rows,
    _prime_turns,
    _rs_blocks,
    _rs_jet,
    _rs_main_sums,
    siegel_theta,
    zeta_em_many,
    zeta_em_progression,
    zeta_line,
    zeta_rs_many,
)

from oracles import eta_zeta, eta_zeta_derivative, rs_main_sums_direct, trial_division_primes

ZETA_HALF = -1.4603545088095868
FIRST_ZERO = 14.134725141734693


def test_zeta_half_matches_eta_oracle():
    oracle = eta_zeta(0.5)
    assert abs(oracle.real - ZETA_HALF) < 1e-12
    got = zeta_line(0.0)[0]
    assert abs(got - oracle) < 1e-10


def test_em_against_eta_series_small_heights():
    for t in (0.0, 0.5, 3.0, 9.7):
        oracle = eta_zeta(complex(0.5, t))
        assert abs(zeta_em_many(complex(0.5, t))[0] - oracle) < 1e-10


def test_em_off_the_line():
    # the recipe evaluations sit near s = 1
    for s in (1.0724, 0.8552, 1.5 + 2.0j, 0.51 + 0.7j):
        oracle = eta_zeta(s)
        assert abs(zeta_em_many(s)[0] - oracle) < 1e-9


def test_first_zero_by_root_find():
    # Z(t) = exp(i theta) zeta(1/2 + it) is real; bracket the first sign change
    def hardy_z(t):
        theta = float(np.remainder(siegel_theta(t), 2.0 * np.pi))
        return (np.exp(1j * theta) * zeta_em_many(complex(0.5, t))[0]).real

    root = brentq(hardy_z, 14.0, 14.3, xtol=1e-9)
    assert abs(root - FIRST_ZERO) < 1e-5
    assert abs(zeta_line(FIRST_ZERO)[0]) < 1e-4


@pytest.mark.parametrize("sigma", [0.5, 0.5 + 0.0724])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("count", [1, 2, 7, 49, 20001])
def test_em_progression_matches_em_many(count, sign, sigma):
    # the k=1 quadrature's grid: both factors, from t = 1000 with step 0.05
    # the reference takes every node up to 200 and a strided subset above;
    # the subset keeps both ends, so zeta_em_many picks the same term count
    s0, ds = complex(sigma, sign * 1000.0), sign * 0.05j
    got = zeta_em_progression(s0, ds, count)
    assert got.shape == (count,)
    idx = np.unique(np.r_[np.arange(0, count, max(1, count // 200)), count - 1])
    direct = zeta_em_many(s0 + idx * ds)[0]
    assert np.abs(got[idx] - direct).max() <= 1e-12 * np.abs(direct).max()


@pytest.mark.parametrize("sign", [1, -1])
def test_em_progression_matches_em_many_on_the_widest_grid(sign):
    # the widest default quadrature grid, recipe-k1 --t-lo 50 --t-hi 1e4 --quadrature:
    # 199,001 nodes from 0.5 + 50i at step 0.05i, where the coarse x fine rows reach
    # their largest anchors, against the same strided reference.  Near t = 1e4 either
    # route rounds a term's phase t log n (up to 9e4 rad) to about spacing(t) log n in
    # float64: that, not 1e-12, is the resolution there, and both routes are about
    # 2e-11 off mpmath at t = 1e4 (they differ by 2.1e-12 of max |zeta|)
    s0, ds, count = complex(0.5, sign * 50.0), sign * 0.05j, 199_001
    got = zeta_em_progression(s0, ds, count)
    idx = np.unique(np.r_[np.arange(0, count, count // 200), count - 1])
    direct = zeta_em_many(s0 + idx * ds)[0]
    resolution = np.spacing(1e4) * math.log(_em_terms(1e4))
    assert np.abs(got[idx] - direct).max() <= resolution * np.abs(direct).max()


@pytest.mark.parametrize("t", [50.0, 1000.0, 1e4])
@pytest.mark.parametrize("sigma", [0.5, 0.5724, 1.3])
def test_em_tail_is_the_hurwitz_zeta(sigma, t):
    # the tail both EM evaluators add is sum_{n >= M} n^{-s}, mpmath's Hurwitz zeta(s, M),
    # and its rows r <= 4 are that sum's s-derivatives; M is the count _em_terms picks.
    # Past 1e-13, any float64 route to M^{-s} carries the rounding of its argument s log M
    import mpmath as mp

    s, terms = complex(sigma, t), _em_terms(t)
    got = _em_tail(np.array([s]), terms, 4)[:, 0]
    bound = 1e-13 + abs(s) * math.log(terms) * 2.0**-52
    with mp.workdps(30):
        for r, value in enumerate(got):
            ref = complex(mp.zeta(mp.mpc(sigma, t), terms, r))
            assert abs(value - ref) <= bound * abs(ref), f"row {r}"


def test_em_progression_against_mpmath():
    import mpmath as mp

    mp.mp.dps = 25
    got = zeta_em_progression(0.5 + 1000j, 250j, 5)
    for j, gj in enumerate(got):
        ref = complex(mp.zeta(mp.mpc(0.5, 1000 + 250 * j)))
        assert abs(gj - ref) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    sigma=st.floats(0.2, 0.6),
    height=st.floats(-500.0, 500.0),
    step_re=st.floats(-0.005, 0.005),
    step_im=st.floats(-2.0, 2.0),
    count=st.integers(1, 40),
)
def test_em_progression_matches_em_many_property(sigma, height, step_re, step_im, count):
    s0, ds = complex(sigma, height), complex(step_re, step_im)
    direct = zeta_em_many(s0 + np.arange(count) * ds)[0]
    got = zeta_em_progression(s0, ds, count)
    # near a zero max|zeta| over a few nodes can be tiny, while the main
    # sum's rounding is set by its O(1) terms: floor the scale at 1
    assert np.abs(got - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())


def test_em_progression_memory_is_bounded():
    # the widest quadrature grid at the default step: [50, 1e4] with h = 0.05
    zeta_em_progression(0.5 + 50j, 0.05j, 199_001)
    tracemalloc.start()
    try:
        zeta_em_progression(0.5 + 50j, 0.05j, 199_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2 MiB chunk buffer, the 447 x 446 sums and one chunk's product, and a tail
    # block; full anchor and step tables over all 6,007 terms would take ~120 MiB
    assert peak < 24 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_em_progression_rejects_empty_counts():
    for count in (0, -3, 2.0):
        with pytest.raises(ValueError, match="count"):
            zeta_em_progression(0.5 + 1000j, 0.05j, count)


def test_rs_vs_em_dual_route():
    rng = np.random.default_rng(314)
    t = rng.uniform(50.0, 500.0, size=200)
    rs = zeta_rs_many(t)[0]
    em = zeta_em_many(0.5 + 1j * t)[0]
    assert np.abs(rs - em).max() < 1e-6


def test_rs_correction_terms_tighten(monkeypatch):
    rng = np.random.default_rng(2)
    t = rng.uniform(60.0, 300.0, size=50)
    em = zeta_em_many(0.5 + 1j * t)[0]

    def error(terms):  # the remainder keeps C_0..C_{terms - 1}
        monkeypatch.setattr(zeta_eval, "_C_RELATIONS", _C_RELATIONS[:terms])
        return np.abs(_rs_jet(t, 0)[0] - em).max()

    err0, err2, err4 = error(1), error(3), error(5)
    assert err2 < err0
    assert err4 < err2 < 1e-4


def test_rs_large_heights_against_mpmath():
    import mpmath as mp

    mp.mp.dps = 30
    ts = (1e4 + 0.3, 1e6 + 0.37, 1e8 - 0.2)
    for t, got in zip(ts, zeta_rs_many(np.array(ts))[0]):
        ref = complex(mp.zeta(mp.mpc(0.5, t)))
        assert abs(got - ref) < 1e-6


def test_rs_main_sum_against_mpmath_direct_sum():
    # 2 Re(e^{i theta} sum n^{-1/2-it}) is the main sum 2 sum n^{-1/2} cos(theta - t log n)
    import mpmath as mp

    mp.mp.dps = 30
    ts = np.array([1e4 + 0.3, 5e7 + 1.5, 1e8 - 0.2])
    big_n = np.sqrt(ts / (2.0 * math.pi)).astype(np.int64)
    sums = _rs_main_sums(ts, big_n, 0)[0]
    theta = np.remainder(siegel_theta(ts), zeta_eval.TWO_PI_LD).astype(float)
    got = 2.0 * (np.exp(1j * theta) * sums).real
    for t, n_max, gi in zip(ts, big_n, got):
        t_mp = mp.mpf(float(t))
        th = mp.siegeltheta(t_mp)
        ref = 2 * mp.fsum(mp.cos(th - t_mp * mp.log(n)) / mp.sqrt(n) for n in range(1, int(n_max) + 1))
        assert abs(gi - float(ref)) < 1e-9


def test_rs_values_do_not_depend_on_the_batch():
    rng = np.random.default_rng(41)
    probes = np.array([5e7 + 1.5, 7.3e7 + 0.25, 1e8 - 0.2])
    alone = np.array([zeta_rs_many(np.array([t]))[0, 0] for t in probes])
    batch = np.concatenate([probes, rng.uniform(5e7, 1e8, size=1997)])
    order = rng.permutation(batch.size)
    shuffled = np.empty(batch.size, dtype=np.complex128)
    shuffled[order] = zeta_rs_many(batch[order])[0]
    mixed = zeta_rs_many(np.concatenate([[41.0, 1e4 + 0.3, 2e5], probes, [55.5]]))[0, 3:6]
    scale = np.maximum(1.0, np.abs(alone))
    assert np.all(np.abs(shuffled[:3] - alone) <= 1e-12 * scale)
    assert np.all(np.abs(mixed - alone) <= 1e-12 * scale)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_rs_jet_order_zero_is_the_evaluation(order):
    t = np.array([2000.5, 5000.0, 33333.3, 1e5, 1e6 + 0.37, 5e7 + 1.5, 1e8 - 0.2])
    ref = zeta_rs_many(t)[0]
    got = zeta_rs_many(t, order)[0]
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def test_split_prime_phases_against_mpmath():
    # t log p mod 2 pi at 30 digits, for every prime of the main sum up to the ceiling
    import mpmath as mp

    mp.mp.dps = 30
    ts = np.array([1e4 + 0.3, 5e7 + 1.5, 1e8 - 0.2])
    assert _PRIMES[-1] <= _RS_MAX_N and _PRIMES.size == 550
    turns = _prime_turns(ts, _PRIMES.size)
    rows = _prime_rows(ts, _PRIMES.size)
    two_pi = 2 * mp.pi
    for j, t in enumerate(ts):
        t_mp = mp.mpf(float(t))
        for i, p in enumerate(_PRIMES.tolist()):
            ref = t_mp * mp.log(p) % two_pi
            gap = mp.mpf(float(turns[i, j])) * two_pi - ref
            gap -= two_pi * mp.nint(gap / two_pi)
            assert abs(gap) < 1e-10, (t, p, float(gap))
            # the quarter-turn split of the rows: p^{-1/2} e^{-i t log p}
            value = complex(mp.expj(-ref) / mp.sqrt(p))
            assert abs(rows[i, j] - value) < 1e-10 / math.sqrt(p), (t, p)


def test_split_prime_phase_heads_are_exact():
    # floor(t) * head carries no rounding for any t <= RS_MAX_T: head is on a 2^-24
    # grid and head * 2^24 * floor(RS_MAX_T) is an integer below 2^53
    top = math.floor(RS_MAX_T)
    for head, tail in zip(zeta_eval._TURNS_HEAD.tolist(), zeta_eval._TURNS_TAIL.tolist()):
        scaled = Fraction(head) * 2**24
        assert scaled.denominator == 1 and scaled * top < 2**53
        assert Fraction(head * top) == Fraction(head) * top
        assert abs(tail) <= 2.0**-25
    assert np.all(np.abs(zeta_eval._TURNS_HEAD + zeta_eval._TURNS_TAIL - zeta_eval._TURNS) <= 1e-16)


def test_zeta_line_bit_identical_for_any_thread_count(monkeypatch):
    # a short switch interval interleaves the pipeline's two stages finely, so the
    # worker building a block's prime rows while the caller sums the last would show
    t = np.random.default_rng(12).uniform(5e7, 1e8, size=300)
    big_n = np.sort(np.sqrt(t / (2.0 * math.pi)).astype(np.int64))
    assert len(list(_rs_blocks(big_n))) >= 3
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("TILTLAB_THREADS", workers)
            runs.append((zeta_line(t, 0), zeta_line(t, 2)))
    finally:
        sys.setswitchinterval(interval)
    for run in runs[1:]:
        for values, first in zip(run, runs[0]):
            assert np.array_equal(values, first)


def test_rs_main_sum_memory_is_bounded_by_its_block_table(monkeypatch):
    t = np.random.default_rng(8).uniform(5e7, 1e8, size=10_000)
    zeta_rs_many(t[:4])
    for workers in ("1", "2"):
        monkeypatch.setenv("TILTLAB_THREADS", workers)
        tracemalloc.start()
        try:
            zeta_rs_many(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 2 MiB buffer for the wheel table, its prefix sums and the s-terms, the
        # level products, and with two threads the next block's prime rows; all
        # 10,000 main sums at once would take ~600 MiB
        assert peak < 6 * 2**20, f"{workers} threads: peak {peak / 2**20:.2f} MiB"


def test_factor_levels_rebuild_every_n():
    n_max = 5000
    primes, levels = _factor_levels(n_max)
    assert primes.tolist() == trial_division_primes(n_max)
    built = np.zeros(n_max + 1, dtype=np.int64)
    built[1] = 1
    built[primes] = primes
    for n_row, spf_row, cof_row in levels:
        assert np.all(np.diff(n_row) > 0)
        assert np.all(built[spf_row + 1] > 0) and np.all(built[cof_row + 1] > 0)
        assert np.all(built[n_row + 1] == 0)
        # the smallest prime factor: no smaller prime divides n
        for n, spf in zip(n_row + 1, spf_row + 1):
            assert spf in primes and not any(n % q == 0 for q in primes[primes < spf])
        built[n_row + 1] = built[spf_row + 1] * built[cof_row + 1]
    assert built.tolist() == list(range(n_max + 1))


def test_rs_main_sums_match_a_full_table_of_n():
    # N from 12 (just above t = 1000) to 3,989 (t = 1e8); every block holds several N
    t = np.geomspace(1000.5, 1e8, 300)
    big_n = np.sqrt(t / (2.0 * math.pi)).astype(np.int64)
    assert big_n[0] == 12 and big_n[-1] == _RS_MAX_N
    blocks = list(_rs_blocks(big_n))
    assert len(blocks) > 1 and all(np.unique(big_n[start:stop]).size > 1 for start, stop in blocks)
    want = rs_main_sums_direct(t, big_n, 4)
    full = _rs_main_sums(t, big_n, 4)
    assert np.all(np.abs(full - want) <= 1e-12 * np.abs(want))
    # a point's rows do not depend on how many orders were asked for
    for order in range(4):
        assert np.array_equal(_rs_main_sums(t, big_n, order), full[: order + 1])


def _is_3_smooth(n):
    for p in (2, 3):
        while n % p == 0:
            n //= p
    return n == 1


def test_wheel_tables_factor_every_n():
    smooth, wheel = zeta_eval._SMOOTH, zeta_eval._WHEEL
    ns = range(1, _RS_MAX_N + 1)
    assert sorted(smooth.tolist()) == [n for n in ns if _is_3_smooth(n)]
    assert wheel.tolist() == [n for n in ns if math.gcd(n, 6) == 1]
    assert np.array_equal(wheel // 3, np.arange(wheel.size))
    assert np.array_equal(zeta_eval._WHEEL_COUNT, np.cumsum([math.gcd(n, 6) == 1 for n in range(_RS_MAX_N + 1)]))
    # n = s m for exactly one 3-smooth s and one m coprime to 6
    products = np.outer(smooth, wheel)
    assert np.array_equal(np.bincount(products[products <= _RS_MAX_N]), [0] + [1] * _RS_MAX_N)


def test_wheel_levels_rebuild_every_m():
    wheel = zeta_eval._WHEEL
    primes = _PRIMES[2:]
    built = np.zeros(wheel.size, dtype=np.int64)
    built[0] = 1
    built[primes // 3] = primes
    for m_row, spf_row, cof_row in zeta_eval._WHEEL_LEVELS:
        assert np.all(np.diff(m_row) > 0)
        assert np.all(built[spf_row] > 0) and np.all(built[cof_row] > 0)
        assert np.all(built[m_row] == 0)
        # the smallest prime factor: a prime from 5 up, and no smaller prime divides m
        for m, spf in zip(wheel[m_row], wheel[spf_row]):
            assert spf in primes and not any(m % q == 0 for q in _PRIMES[_PRIMES < spf])
        built[m_row] = built[spf_row] * built[cof_row]
    assert np.array_equal(built, wheel)


def test_quarter_lookup_is_exact():
    amp = 1.0 / np.sqrt(_PRIMES.astype(float))
    want = np.array([[complex(a, 0.0), complex(0.0, -a), complex(-a, 0.0), complex(0.0, a)] for a in amp])
    assert np.array_equal(zeta_eval._QUARTERS.view(np.uint64), want.ravel().view(np.uint64))


def _masked_quarter_rows(turns):
    # p^{-1/2} e^{-2 pi i u} with the quarter turns of u taken by masked passes:
    # a product by -i for odd q, then a sign for q = 2, 3 mod 4
    turns = 4.0 * turns
    quarter = np.rint(turns)
    turns = (turns - quarter) * (-math.pi / 2)
    rows = np.empty(turns.shape, dtype=np.complex128)
    np.cos(turns, out=rows.real)
    np.sin(turns, out=rows.imag)
    quarter = quarter.astype(np.int64) & 3
    np.multiply(rows, -1j, out=rows, where=(quarter & 1).astype(bool))
    np.negative(rows, out=rows, where=quarter >= 2)
    rows *= (1.0 / np.sqrt(_PRIMES[: len(rows)].astype(float)))[:, None]
    return rows


def test_quarter_lookup_rows_match_masked_quarter_turns(monkeypatch):
    # the lookup's one product gives the masked passes' bits, also where 4u is an
    # integer and cos and sin see a signed zero
    rng = np.random.default_rng(21)
    t = rng.uniform(1e3, 1e8, 300)
    on_quarters = np.concatenate([np.arange(-12, 24) / 4.0, rng.uniform(-3.0, 6.0, 264)])
    for turns in (_prime_turns(t, _PRIMES.size), np.tile(on_quarters, (_PRIMES.size, 1))):
        monkeypatch.setattr(zeta_eval, "_prime_turns", lambda t, n, turns=turns: turns[:n].copy())
        got = _prime_rows(t, _PRIMES.size)
        assert np.array_equal(got.view(np.uint64), _masked_quarter_rows(turns).view(np.uint64))


def test_rs_memory_at_low_height_is_bounded():
    t = np.random.default_rng(9).uniform(1e5, 2e5, size=10_000)
    zeta_line(t[:4], 1)
    tracemalloc.start()
    try:
        zeta_line(t, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2 MiB block buffer, this block's and, with two threads, the next block's
    # prime rows, and the jet rows of 10,000 points
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_rs_path_requires_an_extended_long_double(monkeypatch):
    monkeypatch.setattr(zeta_eval, "_LONGDOUBLE_OK", False)
    for call in (
        lambda: zeta_rs_many(np.array([5000.0])),
        lambda: zeta_line(np.array([3.0, 5000.0])),
        lambda: zeta_line(5000.0, 1),
    ):
        with pytest.raises(ValueError, match="long double"):
            call()
    assert np.array_equal(zeta_line(300.0, 4), zeta_em_many(0.5 + 300j, order=4))


def test_conjugation_symmetry_exact():
    t = np.array([0.7, 55.0, EM_AUTO_MAX_T, 1000.5, 3000.0, 1e8])
    for m in range(5):
        assert np.array_equal(zeta_line(-t, m), np.conj(zeta_line(t, m)))
        for ti in t:
            assert np.array_equal(zeta_line(-ti, m), np.conj(zeta_line(ti, m)))


def test_auto_path_consistency_at_boundary():
    # one crossover at every order: EM at EM_AUTO_MAX_T, RS from the next float up
    t = EM_AUTO_MAX_T
    above = np.nextafter(t, np.inf)
    assert np.all(np.isfinite(zeta_line(t - 1.0, 4)))
    assert np.array_equal(zeta_line(t, 4), zeta_em_many(0.5 + 1j * t, order=4))
    rs = zeta_line(above, 4)
    assert np.array_equal(rs[0], zeta_rs_many(above)[0])
    em = zeta_em_many(0.5 + 1j * above, order=4)
    for m in range(5):
        assert abs(rs[m] - em[m]) < 1e-9 * max(1.0, abs(em[m]))
    b = zeta_line(t + 1.0)[0]
    assert abs(zeta_em_many(np.array([0.5 + 1j * (t + 1.0)]))[0, 0] - b) < 1e-9


def test_many_matches_scalar():
    t = np.array([0.0, 12.0, 444.4, EM_AUTO_MAX_T, 1234.5, 31000.0])
    many = zeta_line(t)[0]
    for ti, vi in zip(t, many):
        assert vi == pytest.approx(zeta_line(float(ti))[0], abs=1e-12)


def test_derivative_order_zero_degenerates_to_evaluation():
    for t in (0.0, 77.0, 1500.0, 5000.0):
        for m in range(1, 5):
            assert zeta_line(t, m)[0] == zeta_line(t)[0]


def test_derivative_matches_eta_oracle_at_zero():
    got = zeta_line(0.0, 1)[1]
    oracle = eta_zeta_derivative(0.5)
    assert abs(got - oracle) < 1e-6


def test_derivative_conjugation():
    rng = np.random.default_rng(6)
    for m in (1, 2):
        for t in rng.uniform(5, 500, size=3):
            left = zeta_line(-float(t), m)[m]
            right = np.conj(zeta_line(float(t), m)[m])
            assert left == right


def test_low_height_derivatives_against_mpmath():
    import mpmath as mp

    mp.mp.dps = 25
    for t, m in ((13.0, 1), (100.0, 2), (450.0, 3), (800.0, 4)):
        ref = complex(mp.zeta(mp.mpc(0.5, t), derivative=m))
        got = zeta_line(t, m)[m]
        assert abs(got - ref) < 1e-6 * max(1.0, abs(ref))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_em_jet_derivatives_against_mpmath(m):
    import mpmath as mp

    mp.mp.dps = 25
    # the EM path itself stays accurate above the crossover
    t = np.array([13.0, 100.0, 450.0, 800.0, 999.0, 1999.0])
    got = zeta_em_many(0.5 + 1j * t, order=m)[m]
    for ti, gi in zip(t, got):
        ref = complex(mp.zeta(mp.mpc(0.5, ti), derivative=m))
        assert abs(gi - ref) < 1e-10 * abs(ref)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_derivative_many_matches_scalar(m):
    # one batch across the crossover and both signs; the batch shares one EM term count
    t = np.array([0.0, 14.5, -333.3, EM_AUTO_MAX_T, 1000.5, -1500.0, 7777.7, 1e6 + 0.1])
    many = zeta_line(t, m)[m]
    for ti, vi in zip(t, many):
        assert vi == pytest.approx(zeta_line(float(ti), m)[m], rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_line_against_mpmath_across_the_crossover(m):
    # RS now carries every order above 1000, where EM jets used to run up to 2000
    import mpmath as mp

    mp.mp.dps = 25
    t = np.array([999.0, 1000.5, 1500.0, 1999.0])
    got = zeta_line(t, m)[m]
    for ti, gi in zip(t, got):
        ref = complex(mp.zeta(mp.mpc(0.5, ti), derivative=m))
        assert abs(gi - ref) < 1e-10 * abs(ref)


def test_rs_derivatives_against_mpmath():
    import mpmath as mp

    mp.mp.dps = 25
    for t, m in ((5000.0, 1), (5000.0, 2), (1e5, 1), (1e5, 3), (1e5, 4)):
        ref = complex(mp.zeta(mp.mpc(0.5, t), derivative=m))
        got = complex(zeta_line(np.array([t]), m)[m, 0])
        assert abs(got - ref) < 1e-5 * abs(ref)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_rs_jet_derivatives_to_full_order_against_mpmath(m):
    # the correction terms enter the jet to full order; dropping their
    # higher t-derivatives leaves errors near 2e-6 relative at m >= 2
    import mpmath as mp

    mp.mp.dps = 25
    t = np.array([1000.5, 1500.0, 1999.0, 2000.5, 5000.0, 33333.3, 1e5, 1e6 + 0.37, 1e8 - 0.2])
    got = zeta_line(t, m)[m]
    for ti, gi in zip(t, got):
        ref = complex(mp.zeta(mp.mpc(0.5, ti), derivative=m))
        assert abs(gi - ref) < 1e-8 * abs(ref)


def test_phi_table_matches_direct_formula():
    grid = np.linspace(0.001, 0.999, 97)
    direct = np.cos(2 * np.pi * (grid * grid - grid - 1.0 / 16)) / np.cos(2 * np.pi * grid)
    table = _phi_derivative(grid, 0)
    assert np.abs(table - direct).max() < 1e-12


def test_phi_derivatives_against_mpmath():
    import mpmath as mp

    f = lambda x: mp.cos(2 * mp.pi * (x * x - x - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * x)
    for order in (1, 2, 3, 5, 6, 9, 12):
        ref = float(mp.diff(f, mp.mpf("0.37"), order))
        got = float(_phi_derivative(0.37, order))
        assert got == pytest.approx(ref, rel=1e-10)


def test_theta_against_mpmath():
    import mpmath as mp

    for t in (30.0, 500.0, 1e6):
        ref = mp.siegeltheta(t)
        got = float(np.remainder(siegel_theta(t), 2.0 * np.longdouble(np.pi)))
        diff = float((mp.mpf(got) - ref) % (2 * mp.pi))
        diff = min(diff, float(2 * mp.pi) - diff)
        assert diff < 1e-9


def test_ceilings_and_guards():
    for t in (RS_MAX_T * 2, -RS_MAX_T * 2):
        with pytest.raises(ValueError, match="Riemann-Siegel"):
            zeta_line(t)
    for t in (math.nan, math.inf, -math.inf, np.array([5.0, math.nan])):
        with pytest.raises(ValueError, match="^t must be finite$"):
            zeta_line(t)
    with pytest.raises(ValueError):
        zeta_rs_many(np.array([10.0]))
    for m in (5, -1, 1.0):
        with pytest.raises(ValueError, match="derivative order"):
            zeta_line(10.0, m)
    with pytest.raises(ValueError):
        zeta_em_many(1.0)
