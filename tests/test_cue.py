import hashlib
import math
import sys
import tracemalloc
from concurrent import futures

import numpy as np
import pytest

from tiltlab import cue
from tiltlab.cue import (
    STREAM_SHARD,
    SeedSpec,
    _haar_log_abs,
    _haar_unitary_batch,
    _two_sample_ks,
    log_char_poly_stream,
    qr_log_char_poly_stream,
    rotation_invariance_check,
)

from oracles import cmv_matrix, log_abs_from_angles, uncorrected_qr_unitary_batch, verblunsky

TWO_PI = 2.0 * math.pi


def test_determinism_bit_for_bit():
    sa = log_char_poly_stream(9, 5000, SeedSpec(1, 0))
    sb = log_char_poly_stream(9, 5000, SeedSpec(1, 0))
    assert np.array_equal(sa, sb)
    ta = log_char_poly_stream(9, 5000, SeedSpec(1, 0), k=2)
    tb = log_char_poly_stream(9, 5000, SeedSpec(1, 0), k=2)
    assert np.array_equal(ta, tb)
    assert not np.array_equal(ta, log_char_poly_stream(9, 5000, SeedSpec(1, 1), k=2))


def test_u1_phase_is_uniform():
    # Haar on U(1) is the uniform phase; KS of 1e5 draws against uniform
    rng = SeedSpec(5).rng()
    u = _haar_unitary_batch(rng, 1, 10**5)
    angles = np.mod(np.angle(u[:, 0, 0]), TWO_PI)
    sorted_angles = np.sort(angles) / TWO_PI
    n = len(sorted_angles)
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(grid - sorted_angles)), np.max(np.abs(sorted_angles - (grid - 1 / n))))
    assert ks < 0.01


def test_trace_moments_at_n8():
    rng = SeedSpec(17).rng()
    total = 10**5
    traces = np.empty(total, dtype=complex)
    pos = 0
    while pos < total:
        take = min(4096, total - pos)
        u = _haar_unitary_batch(rng, 8, take)
        traces[pos : pos + take] = np.einsum("bii->b", u)
        pos += take
    # E[Tr U] = 0, E[|Tr U|^2] = 1 for CUE
    se_re = traces.real.std() / math.sqrt(total)
    se_im = traces.imag.std() / math.sqrt(total)
    assert abs(traces.real.mean()) < 3 * se_re
    assert abs(traces.imag.mean()) < 3 * se_im
    sq = np.abs(traces) ** 2
    assert abs(sq.mean() - 1.0) < 3 * sq.std() / math.sqrt(total)


def test_log_abs_char_poly_determinant_oracle():
    rng = SeedSpec(23).rng()
    for theta in (0.0, 0.4, 2.2):
        u = _haar_unitary_batch(rng, 6, 1)[0]
        angles = np.mod(np.angle(np.linalg.eigvals(u)), TWO_PI)
        direct = math.log(abs(np.linalg.det(np.eye(6) - u * np.exp(-1j * theta))))
        assert log_abs_from_angles(angles, theta) == pytest.approx(direct, abs=1e-8)


def test_haar_log_abs_matches_eigenphase_oracle():
    # the same draws twice: once through the batched slogdet, once as eigenphases
    for theta in (0.0, 0.4, 2.2):
        got = _haar_log_abs(SeedSpec(24).rng(), 6, 50, theta)
        u = _haar_unitary_batch(SeedSpec(24).rng(), 6, 50)
        angles = np.angle(np.linalg.eigvals(u))
        assert np.abs(got - log_abs_from_angles(angles, theta)).max() < 1e-8


def test_unitarity_of_qr_samples():
    rng = SeedSpec(31).rng()
    u = _haar_unitary_batch(rng, 40, 8)
    drift = np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(40)).max()
    assert drift < 1e-10


def test_rotation_invariance_passes():
    check = rotation_invariance_check(16, 10**4, SeedSpec(11), phi=1.0)
    assert check.passed, f"KS={check.statistic:.4f} threshold={check.threshold:.4f}"


def test_rotation_invariance_negative_control(monkeypatch):
    # QR without phase correction is the classic non-Haar sampler
    monkeypatch.setattr(cue, "_haar_unitary_batch", uncorrected_qr_unitary_batch)
    check = rotation_invariance_check(16, 10**4, SeedSpec(11), phi=1.0)
    assert not check.passed, f"KS={check.statistic:.4f} threshold={check.threshold:.4f}"


def test_uncorrected_qr_oracle_draws_as_the_sampler():
    # the negative control's draw is the sampler's Q before its column phases, from the same normals
    rng_a, rng_b = SeedSpec(4).rng(), SeedSpec(4).rng()
    q = uncorrected_qr_unitary_batch(rng_a, 6, 3)
    u = _haar_unitary_batch(rng_b, 6, 3)
    phases = u[:, :1, :] / q[:, :1, :]
    assert np.allclose(np.abs(phases), 1.0)
    assert np.allclose(u, q * phases)
    assert rng_a.random() == rng_b.random()


def test_rotation_check_sets_are_qr_stream_draws(monkeypatch):
    # set A is the dense QR stream itself; set B, at phi = 0, is that stream from
    # stream_index + trials on, past every stream of set A
    seen = []
    monkeypatch.setattr(cue, "_two_sample_ks", lambda a, b: seen.append((a, b)) or 0.0)
    seed = SeedSpec(11, 3)
    rotation_invariance_check(16, 2000, seed)
    rotation_invariance_check(16, 2000, seed, phi=0.0)
    assert np.array_equal(seen[0][0], qr_log_char_poly_stream(16, 2000, seed))
    assert np.array_equal(seen[1][1], qr_log_char_poly_stream(16, 2000, seed.shifted(2000)))


def test_cmv_matrix_is_unitary_with_unimodular_spectrum():
    rng = np.random.default_rng(8)
    alphas = verblunsky(14, rng)
    c = cmv_matrix(alphas)
    assert np.abs(c @ c.conj().T - np.eye(14)).max() < 1e-12
    ev = np.linalg.eigvals(c)
    assert np.abs(np.abs(ev) - 1.0).max() < 1e-12


def test_stream_second_moment_matches_normalizer():
    # E|Z|^2 = n + 1 under Haar
    n, count = 20, 10**5
    values = log_char_poly_stream(n, count, SeedSpec(13))
    w = np.exp(2.0 * values)
    se = w.std() / math.sqrt(count)
    assert abs(w.mean() - (n + 1)) < 3 * se


def test_stream_agrees_with_qr_route_in_distribution():
    n, count = 12, 4000
    split_vals = log_char_poly_stream(n, count, SeedSpec(41))
    rng = SeedSpec(42, 100).rng()
    u = _haar_unitary_batch(rng, n, count)
    angles = np.mod(np.angle(np.linalg.eigvals(u)), TWO_PI)
    qr_vals = log_abs_from_angles(angles, 0.0)
    ks = _two_sample_ks(split_vals, qr_vals)
    assert ks < 1.6276 * math.sqrt(2.0 / count), f"KS={ks:.4f}"


def test_seed_and_angle_validation():
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(3, -2)
    with pytest.raises(ValueError):
        qr_log_char_poly_stream(0, 10, SeedSpec(1))
    with pytest.raises(ValueError, match="nonnegative integer"):
        log_char_poly_stream(5, 10, SeedSpec(1), k=1.5)
    with pytest.raises(ValueError):
        rotation_invariance_check(4, 10, SeedSpec(1))
    with pytest.raises(ValueError):
        rotation_invariance_check(0, 1000, SeedSpec(1))
    for phi in (math.nan, math.inf):  # refused before any draw, not a failed check
        with pytest.raises(ValueError, match="^phi must be finite"):
            rotation_invariance_check(16, 1000, SeedSpec(1), phi=phi)


def test_streams_bit_identical_for_any_worker_count(monkeypatch):
    # a short switch interval interleaves the workers finely, so two of them
    # sharing a scratch buffer or an output slice would change the values
    count = 3 * STREAM_SHARD + 123  # three full shards and a short one
    qr_count = 3 * (2048 // 9) + 123  # the same, in the QR stream's shards
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("TILTLAB_THREADS", workers)
            runs.append(
                (
                    log_char_poly_stream(9, count, SeedSpec(5, 2)),
                    log_char_poly_stream(9, count, SeedSpec(5, 2), k=2),
                    qr_log_char_poly_stream(9, qr_count, SeedSpec(5, 2)),
                )
            )
    finally:
        sys.setswitchinterval(interval)
    for run in runs[1:]:
        for values, first in zip(run, runs[0]):
            assert np.array_equal(values, first)


def test_stream_pool_capped_by_setting_and_shards(monkeypatch):
    started = []

    class RecordingPool(futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setenv("TILTLAB_THREADS", "8")
    log_char_poly_stream(5, 2 * STREAM_SHARD, SeedSpec(1))
    monkeypatch.setenv("TILTLAB_THREADS", "3")
    log_char_poly_stream(5, 5 * STREAM_SHARD, SeedSpec(1), k=1)
    monkeypatch.setenv("TILTLAB_THREADS", "4")
    log_char_poly_stream(5, STREAM_SHARD, SeedSpec(1))  # one shard: no pool at all
    assert started == [2, 3]
    monkeypatch.setenv("TILTLAB_THREADS", "0")
    with pytest.raises(ValueError, match="TILTLAB_THREADS"):
        log_char_poly_stream(5, 10, SeedSpec(1))


@pytest.mark.parametrize("setting", ["abc", "1.5"])
def test_stream_rejects_non_integer_thread_setting(monkeypatch, setting):
    monkeypatch.setenv("TILTLAB_THREADS", setting)
    with pytest.raises(ValueError) as info:
        log_char_poly_stream(5, 10, SeedSpec(1))
    assert str(info.value) == f"TILTLAB_THREADS must be a positive integer, got {setting!r}"


# SHA-1 of log_char_poly_stream(n, 3 * STREAM_SHARD + 123, SeedSpec(5, 2), k).tobytes(),
# recorded from the whole-shard implementation that the Haar row blocks replaced
STREAM_DIGESTS = {
    (1, 0): "39e77e51bded5d3c5cded723ddc17be9924437e9",
    (1, 1): "7144b66d0ed3475b289d28ea67f3db7b1715d5ff",
    (1, 3): "95b78f0a8fb22bf0971dec659062807b27aaa8ec",
    (2, 0): "ae4836e376c6bee236b788ed1c138663b8e91619",
    (2, 1): "069dc7214e2bf73f928764adaf7ba926fceb5b02",
    (2, 3): "8f5eefd0682375863d768ffa773c690312347d0e",
    (9, 0): "9a0fb4aa49432ff1dcaba4b553c6ea40ac305346",
    (9, 1): "e33dca732f7a86b1fd4ea7896078105eee639f11",
    (9, 3): "6a317240dca6433db42d561767d3b5a70eb0c51a",
    (200, 0): "a2a1af7a9971cb22fab063dc147514542ef2adb5",
    (200, 1): "92608386122c4e8c9ac5dd80bdb4f9363f5fbe2a",
    (200, 3): "588abd8cea82b1d5b0f95b7f8792033f1f1bdf25",
}


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_stream_matches_recorded_digests(monkeypatch, workers):
    monkeypatch.setenv("TILTLAB_THREADS", workers)
    got = {
        (n, k): hashlib.sha1(
            log_char_poly_stream(n, 3 * STREAM_SHARD + 123, SeedSpec(5, 2), k=k).tobytes()
        ).hexdigest()
        for n, k in STREAM_DIGESTS
    }
    assert got == STREAM_DIGESTS


@pytest.mark.parametrize("k, limit_mib", [(0, 32), (1, 48)])
def test_stream_shard_memory_is_bounded(monkeypatch, k, limit_mib):
    # one worker, two shards at N=200: the shard arrays come from the worker's
    # scratch, so the second shard allocates none of them anew
    monkeypatch.setenv("TILTLAB_THREADS", "1")
    tracemalloc.start()
    try:
        log_char_poly_stream(200, 2 * STREAM_SHARD, SeedSpec(3), k=k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("workers, limit_mib", [("1", 10), ("2", 18)])
def test_haar_shard_scratch_is_row_blocks(monkeypatch, workers, limit_mib):
    # at k = 0 only the radii span a shard (6.25 MiB at N = 200); the exponentials,
    # |1 + r e^{iw}|^2 and the phases live in row blocks of about 256 KiB
    monkeypatch.setenv("TILTLAB_THREADS", workers)
    tracemalloc.start()
    try:
        log_char_poly_stream(200, 2 * STREAM_SHARD, SeedSpec(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20, f"peak {peak / 2**20:.1f} MiB"
