import math
import sys
from concurrent import futures

import numpy as np
import pytest

from tiltlab.cue import (
    STREAM_SHARD,
    EigenAngles,
    NearSingularEvaluation,
    SeedSpec,
    _haar_unitary_batch,
    _szego_log_abs,
    _two_sample_ks,
    cmv_matrix,
    log_abs_char_poly,
    log_char_poly_stream,
    rotation_invariance_check,
    sample_cue,
    sample_verblunsky,
    tilted_log_char_poly_stream,
)

TWO_PI = 2.0 * math.pi


def test_determinism_bit_for_bit():
    a = sample_cue(12, SeedSpec(99, 3))
    b = sample_cue(12, SeedSpec(99, 3))
    assert np.array_equal(a.angles, b.angles)
    c = sample_cue(12, SeedSpec(99, 4))
    assert not np.array_equal(a.angles, c.angles)
    sa = log_char_poly_stream(9, 5000, SeedSpec(1, 0))
    sb = log_char_poly_stream(9, 5000, SeedSpec(1, 0))
    assert np.array_equal(sa, sb)
    ta = tilted_log_char_poly_stream(9, 2, 5000, SeedSpec(1, 0))
    tb = tilted_log_char_poly_stream(9, 2, 5000, SeedSpec(1, 0))
    assert np.array_equal(ta, tb)
    assert not np.array_equal(ta, tilted_log_char_poly_stream(9, 2, 5000, SeedSpec(1, 1)))


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


def test_log_abs_char_poly_reference_values():
    sample = EigenAngles(1, np.array([math.pi]))
    assert log_abs_char_poly(sample, 0.0) == pytest.approx(math.log(2.0), abs=1e-14)
    with pytest.raises(NearSingularEvaluation):
        log_abs_char_poly(sample, math.pi)


def test_log_abs_char_poly_determinant_oracle():
    rng = SeedSpec(23).rng()
    for theta in (0.0, 0.4, 2.2):
        u = _haar_unitary_batch(rng, 6, None)
        angles = np.mod(np.angle(np.linalg.eigvals(u)), TWO_PI)
        direct = math.log(abs(np.linalg.det(np.eye(6) - u * np.exp(-1j * theta))))
        assert log_abs_char_poly(EigenAngles(6, angles), theta) == pytest.approx(
            direct, abs=1e-8
        )


def test_log_abs_permutation_invariance():
    rng = np.random.default_rng(0)
    angles = np.sort(rng.random(10) * TWO_PI)
    v1 = log_abs_char_poly(EigenAngles(10, angles), 0.7)
    shuffled = angles.copy()
    rng.shuffle(shuffled)
    v2 = log_abs_char_poly(EigenAngles(10, shuffled), 0.7)
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_unitarity_of_qr_samples():
    rng = SeedSpec(31).rng()
    u = _haar_unitary_batch(rng, 40, 8)
    drift = np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(40)).max()
    assert drift < 1e-10


def test_rotation_invariance_shared_stream_zero():
    check = rotation_invariance_check(6, 1000, SeedSpec(3), phi=0.0, share_stream=True)
    assert check.statistic == 0.0
    assert check.passed


def test_rotation_invariance_passes():
    check = rotation_invariance_check(16, 10**4, SeedSpec(11), phi=1.0)
    assert check.passed, f"KS={check.statistic:.4f} threshold={check.threshold:.4f}"


def test_rotation_invariance_negative_control():
    # QR without phase correction is the classic non-Haar sampler
    check = rotation_invariance_check(16, 10**4, SeedSpec(11), phi=1.0, phase_correction=False)
    assert not check.passed, f"KS={check.statistic:.4f} threshold={check.threshold:.4f}"


def test_cmv_matrix_is_unitary_with_unimodular_spectrum():
    rng = np.random.default_rng(8)
    alphas = sample_verblunsky(14, rng)
    c = cmv_matrix(alphas)
    assert np.abs(c @ c.conj().T - np.eye(14)).max() < 1e-12
    ev = np.linalg.eigvals(c)
    assert np.abs(np.abs(ev) - 1.0).max() < 1e-12


def test_szego_recurrence_matches_dense_cmv():
    rng = np.random.default_rng(21)
    for n in (2, 5, 9, 30):
        alphas = sample_verblunsky(n, rng)
        ev = np.linalg.eigvals(cmv_matrix(alphas))
        for theta in (0.0, 1.3):
            z = np.exp(1j * theta)
            dense = float(np.sum(np.log(np.abs(z - ev))))
            rec = float(_szego_log_abs(alphas[None, :], z)[0])
            assert rec == pytest.approx(dense, abs=1e-10)


def test_cmv_sample_cue_contract():
    sample = sample_cue(10, SeedSpec(77), method="cmv")
    assert sample.n == 10
    assert np.all((sample.angles >= 0) & (sample.angles < TWO_PI))


def test_stream_second_moment_matches_normalizer():
    # E|Z|^2 = n + 1 under Haar
    n, count = 20, 10**5
    values = log_char_poly_stream(n, count, SeedSpec(13))
    w = np.exp(2.0 * values)
    se = w.std() / math.sqrt(count)
    assert abs(w.mean() - (n + 1)) < 3 * se


def test_stream_agrees_with_qr_route_in_distribution():
    n, count = 12, 4000
    cmv_vals = log_char_poly_stream(n, count, SeedSpec(41))
    rng = SeedSpec(42, 100).rng()
    u = _haar_unitary_batch(rng, n, count)
    angles = np.mod(np.angle(np.linalg.eigvals(u)), TWO_PI)
    qr_vals = np.sum(np.log(2.0 * np.abs(np.sin(0.5 * angles))), axis=1)
    ks = _two_sample_ks(cmv_vals, qr_vals)
    assert ks < 1.6276 * math.sqrt(2.0 / count), f"KS={ks:.4f}"


def test_seed_and_angle_validation():
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(3, -2)
    with pytest.raises(ValueError):
        EigenAngles(3, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        EigenAngles(2, np.array([0.0, 7.0]))
    with pytest.raises(ValueError):
        sample_cue(0, SeedSpec(1))
    with pytest.raises(ValueError):
        sample_cue(4, SeedSpec(1), method="magic")
    with pytest.raises(ValueError):
        rotation_invariance_check(4, 10, SeedSpec(1))
    with pytest.raises(ValueError):
        rotation_invariance_check(0, 1000, SeedSpec(1))


def test_streams_bit_identical_for_any_worker_count(monkeypatch):
    # a short switch interval interleaves the workers finely, so two of them
    # sharing a scratch buffer or an output slice would change the values
    count = 3 * STREAM_SHARD + 123  # three full shards and a short one
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("TILTLAB_THREADS", workers)
            runs.append(
                (
                    log_char_poly_stream(9, count, SeedSpec(5, 2), theta=0.3),
                    tilted_log_char_poly_stream(9, 2, count, SeedSpec(5, 2)),
                )
            )
    finally:
        sys.setswitchinterval(interval)
    for plain, tilted in runs[1:]:
        assert np.array_equal(plain, runs[0][0])
        assert np.array_equal(tilted, runs[0][1])


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
    tilted_log_char_poly_stream(5, 1, 5 * STREAM_SHARD, SeedSpec(1))
    monkeypatch.setenv("TILTLAB_THREADS", "4")
    log_char_poly_stream(5, STREAM_SHARD, SeedSpec(1))  # one shard: no pool at all
    assert started == [2, 3]
    monkeypatch.setenv("TILTLAB_THREADS", "0")
    with pytest.raises(ValueError, match="TILTLAB_THREADS"):
        log_char_poly_stream(5, 10, SeedSpec(1))
