"""Haar-random CUE eigenphases and stable evaluation of log|Z(U, theta)|.

Two samplers share one contract:

* ``qr``  -- complex Ginibre -> QR -> multiply Q by the phases of diag(R)
  (without that correction Q is *not* Haar) -> eigenphases.  O(N^3), easy
  to cross-check against a dense determinant.
* ``cmv`` -- Verblunsky coefficients alpha_k with |alpha_k|^2 ~
  Beta(1, N-1-k) and a final uniform phase; the pentadiagonal CMV matrix
  built from them has CUE-distributed eigenvalues (Killip-Nenciu).

The CMV draw also powers ``log_char_poly_stream``: the monic Szego
recurrence evaluates the characteristic polynomial at one point in O(N),
which is what makes 10^5-sample Monte Carlo runs at N=200 cheap.
``tilted_log_char_poly_stream`` draws log|Z| from the tilted law
|Z|^{2k} d_Haar itself (integer k), through the splitting of det(I - U)
into independent factors.  Streams are sharded by fixed-size blocks of
the (master_seed, stream_index) space, so results never depend on how
many workers consumed them; the shards run on a thread pool of
TILTLAB_THREADS workers (default: the CPUs this process may use).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeedSpec",
    "EigenAngles",
    "NearSingularEvaluation",
    "sample_cue",
    "sample_verblunsky",
    "cmv_matrix",
    "log_abs_char_poly",
    "log_char_poly_stream",
    "tilted_log_char_poly_stream",
    "rotation_invariance_check",
    "RotationCheck",
]

ANGLE_EPSILON = 1e-12
UNITARITY_TOL = 1e-10
TWO_PI = 2.0 * np.pi


class NearSingularEvaluation(ValueError):
    """theta collides with an eigenphase; the caller should resample theta."""


@dataclass(frozen=True)
class SeedSpec:
    """(master_seed, stream_index) fully determines a sample stream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.stream_index < 0:
            raise ValueError("stream_index must be nonnegative")

    def rng(self):
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_index,))
        return np.random.default_rng(seq)

    def shifted(self, offset):
        return SeedSpec(self.master_seed, self.stream_index + offset)


@dataclass(frozen=True)
class EigenAngles:
    """One CUE sample: n eigenphases in [0, 2*pi)."""

    n: int
    angles: np.ndarray

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        if angles.shape != (self.n,):
            raise ValueError(f"expected {self.n} angles, got shape {angles.shape}")
        if np.any(angles < 0) or np.any(angles >= TWO_PI):
            raise ValueError("angles must lie in [0, 2*pi)")
        object.__setattr__(self, "angles", angles)


def _ginibre(rng, n, count=None):
    shape = (n, n) if count is None else (count, n, n)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _haar_unitary_batch(rng, n, count, phase_correction=True):
    """QR route; phase_correction=False is the known-biased negative control."""
    a = _ginibre(rng, n, count)
    q, r = np.linalg.qr(a)
    if phase_correction:
        d = np.einsum("...ii->...i", r).copy()
        q = q * (d / np.abs(d))[..., None, :]
    return q


def _angles_from_unitary(u):
    ev = np.linalg.eigvals(u)
    return np.mod(np.angle(ev), TWO_PI)


def sample_cue(n, seed: SeedSpec, method="qr", phase_correction=True) -> EigenAngles:
    """One Haar(U(n)) sample of eigenphases.

    method='qr' is the reference sampler; method='cmv' diagonalizes the
    CMV matrix of a Verblunsky draw instead (same law, cheaper to extend
    to bulk streams).  Draws failing the unitarity guard are resampled.
    """
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    rng = seed.rng()
    if method == "cmv":
        alphas = sample_verblunsky(n, rng)
        return EigenAngles(n, _angles_from_unitary(cmv_matrix(alphas)))
    if method != "qr":
        raise ValueError(f"unknown sampler method {method!r}")
    for _ in range(8):
        u = _haar_unitary_batch(rng, n, None, phase_correction)
        drift = np.abs(u.conj().T @ u - np.eye(n)).max()
        if drift < UNITARITY_TOL:
            return EigenAngles(n, _angles_from_unitary(u))
    raise RuntimeError("repeated unitarity failures in QR sampling")  # pragma: no cover


def sample_verblunsky(n, rng):
    """Verblunsky coefficients whose CMV matrix is CUE(n)-distributed."""
    ks = np.arange(n - 1)
    u = rng.random(n - 1)
    radii = np.sqrt(1.0 - u ** (1.0 / (n - 1 - ks))) if n > 1 else np.empty(0)
    phases = rng.random(n) * TWO_PI
    alphas = np.empty(n, dtype=np.complex128)
    alphas[: n - 1] = radii * np.exp(1j * phases[: n - 1])
    alphas[n - 1] = np.exp(1j * phases[n - 1])
    return alphas


def cmv_matrix(alphas):
    """Dense CMV matrix C = L M for the given Verblunsky coefficients."""
    alphas = np.asarray(alphas, dtype=np.complex128)
    n = len(alphas)
    rho = np.sqrt(np.clip(1.0 - np.abs(alphas) ** 2, 0.0, None))

    def block(k):
        return np.array([[np.conj(alphas[k]), rho[k]], [rho[k], -alphas[k]]])

    left = np.zeros((n, n), dtype=np.complex128)
    right = np.zeros((n, n), dtype=np.complex128)
    i = 0
    while i < n:
        if i + 1 < n:
            left[i : i + 2, i : i + 2] = block(i)
        else:
            left[i, i] = np.conj(alphas[i])
        i += 2
    right[0, 0] = 1.0
    i = 1
    while i < n:
        if i + 1 < n:
            right[i : i + 2, i : i + 2] = block(i)
        else:
            right[i, i] = np.conj(alphas[i])
        i += 2
    return left @ right


def log_abs_char_poly(sample: EigenAngles, theta: float) -> float:
    """log|det(I - U e^{-i theta})| = sum_j log(2 |sin((theta_j - theta)/2)|)."""
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    half = 0.5 * (sample.angles - theta)
    s = np.abs(np.sin(half))
    if np.any(s < 0.5 * ANGLE_EPSILON):
        raise NearSingularEvaluation(
            f"theta={theta} within {ANGLE_EPSILON} of an eigenphase"
        )
    return float(np.sum(np.log(2.0 * s)))


def _szego_log_abs(alphas_block, z):
    """log|det(zI - C)| for a (count, n) block of Verblunsky draws, O(n) each."""
    count, n = alphas_block.shape
    phi = np.ones(count, dtype=np.complex128)
    phi_star = np.ones(count, dtype=np.complex128)
    log_scale = np.zeros(count)
    for k in range(n - 1):
        zphi = z * phi
        a = alphas_block[:, k]
        phi = zphi - np.conj(a) * phi_star
        phi_star = phi_star - a * zphi
        if (k & 63) == 63:
            mag = np.abs(phi) + np.abs(phi_star)
            log_scale += np.log(mag)
            phi /= mag
            phi_star /= mag
    final = z * phi - np.conj(alphas_block[:, n - 1]) * phi_star
    return np.log(np.abs(final)) + log_scale


STREAM_SHARD = 4096


def _stream_workers(shards):
    """Threads for a sharded stream: TILTLAB_THREADS, else the CPUs this process may use.

    Never more than the number of shards, so at most that many shards'
    temporaries are alive at once.
    """
    setting = os.environ.get("TILTLAB_THREADS")
    if setting:
        workers = int(setting)
        if workers < 1:
            raise ValueError(f"TILTLAB_THREADS must be a positive integer, got {setting!r}")
    elif hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without CPU affinity
        workers = os.cpu_count() or 1
    return min(workers, shards)


def _sharded(count, seed: SeedSpec, shard_body, shard_size=STREAM_SHARD, scratch=None):
    """count values, shard j of fixed size drawn by shard_body(rng_j, take, buffers).

    rng_j is stream (master_seed, stream_index + j) and each shard writes
    its own slice of the output, so the result is bit-identical for any
    number of workers.  numpy releases the GIL in the random fills and
    ufunc loops that make up a shard, so threads overlap.  scratch() makes
    one worker's reusable buffers; it runs here, once per worker, so the
    large arrays are allocated and freed by the calling thread and no
    shard allocates them anew.
    """
    out = np.empty(count)
    shards = -(-count // shard_size)
    workers = _stream_workers(shards)
    idle = [scratch() if scratch else None for _ in range(workers)]

    def fill(j):
        lo = j * shard_size
        take = min(shard_size, count - lo)
        buffers = idle.pop()  # atomic; never more shards in flight than buffers
        out[lo : lo + take] = shard_body(seed.shifted(j).rng(), take, buffers)
        idle.append(buffers)

    if workers == 1:
        for j in range(shards):
            fill(j)
    else:
        # imported on first use: it would add about 0.7 MiB to every CLI process
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in pool.map(fill, range(shards)):
                pass
    return out


def log_char_poly_stream(n, count, seed: SeedSpec, theta=0.0, shard_size=STREAM_SHARD):
    """count i.i.d. values of log|Z(U, theta)| under Haar, via the CMV fast path.

    Shard j of fixed size uses stream (master_seed, stream_index + j), so
    the output is bit-stable regardless of how shards are scheduled.
    """
    if n < 1 or count < 1:
        raise ValueError("n and count must be >= 1")
    z = np.exp(1j * theta)
    expo = 1.0 / (n - 1 - np.arange(n - 1)) if n > 1 else np.empty(0)
    size = min(shard_size, count)

    def scratch():
        return np.empty((size, n - 1)), np.empty((size, n)), np.empty((n, size), np.complex128)

    def shard(rng, take, buffers):
        u, phases, alphas = buffers
        u = rng.random(out=u[:take])
        phases = rng.random(out=phases[:take])
        phases *= TWO_PI
        # Verblunsky block held transposed, (n, take): each coefficient's column
        # is contiguous for the recurrence; cos/sin equal exp(1j * phases) bit for bit
        alphas = alphas[:, :take]
        np.cos(phases.T, out=alphas.real)
        np.sin(phases.T, out=alphas.imag)
        np.power(u, expo, out=u)
        np.subtract(1.0, u, out=u)
        radii = np.sqrt(u, out=u).T
        alphas.real[: n - 1] *= radii
        alphas.imag[: n - 1] *= radii
        return _szego_log_abs(alphas.T, z)

    return _sharded(count, seed, shard, shard_size, scratch)


def _split_mixture_thresholds(n, k):
    """(k, n-1) cumulative weights of m = 0..k-1 in the tilted r^2 mixture, j = 2..n.

    Component m of factor j has weight prop. to C(k,m)^2 m! (j-1)!/(j+m-1)!,
    the Beta(1+m, j-1) mass of E_w |1 + r e^{iw}|^{2k} = sum_m C(k,m)^2 r^{2m}.
    """
    j = np.arange(2, n + 1, dtype=float)
    weights = np.empty((k + 1, n - 1))
    rising = np.ones(n - 1)
    for m in range(k + 1):
        weights[m] = math.comb(k, m) ** 2 * math.factorial(m) / rising
        rising = rising * (j + m)
    return np.cumsum(weights, axis=0)[:-1] / weights.sum(axis=0)


def _factor_abs_sq(r, u):
    """|1 + r e^{iw}|^2 at w = 2 pi u, as (1-r)^2 + 4 r cos^2(w/2): no cancellation near 0."""
    return (1.0 - r) ** 2 + 4.0 * r * np.cos(np.pi * u) ** 2


def tilted_log_char_poly_stream(n, k, count, seed: SeedSpec):
    """count i.i.d. values of log|Z(U, 0)| under the tilted law |Z|^{2k} d_Haar / M_N(2k).

    Exact, with no importance weights (Bourgade-Hughes-Nikeghbali-Yor
    splitting): det(I - U) has the law of prod_{j=1..n} (1 + r_j e^{i w_j})
    with r_j^2 ~ Beta(1, j-1) (r_1 = 1), w_j uniform, all independent.  The
    weight |Z|^{2k} factorizes, so each factor is tilted on its own: r_j^2
    becomes the mixture of Beta(1+m, j-1) over m = 0..k, drawn as
    1 - prod_{i<=m} U_i^{1/(j-1+i)}, and w_j given r_j is drawn by rejection
    against the envelope (1+r_j)^{2k}.  k must be a nonnegative integer.
    Sharded exactly like log_char_poly_stream.
    """
    if n < 1 or count < 1:
        raise ValueError("n and count must be >= 1")
    if not (k >= 0 and float(k).is_integer()):
        raise ValueError(f"tilt k must be a nonnegative integer, got {k}")
    k = int(k)
    thresholds = _split_mixture_thresholds(n, k)
    inv_denoms = 1.0 / (np.arange(1, n, dtype=float) + np.arange(k + 1)[:, None])

    def shard(rng, take, _buffers):
        r = np.ones((take, n))
        if n > 1:
            expo = rng.standard_exponential((k + 1, take, n - 1))
            log_rest = -expo[0] * inv_denoms[0]
            if k:
                mix = (rng.random((take, n - 1))[None] > thresholds[:, None, :]).sum(axis=0)
            for i in range(1, k + 1):
                log_rest -= np.where(mix >= i, expo[i] * inv_denoms[i], 0.0)
            r[:, 1:] = np.sqrt(-np.expm1(log_rest))
        r = r.ravel()
        sq = _factor_abs_sq(r, rng.random(r.size))
        pending = np.arange(r.size) if k else np.empty(0, dtype=np.intp)
        while pending.size:
            reject = rng.random(pending.size) * (1.0 + r[pending]) ** (2 * k) > sq[pending] ** k
            pending = pending[reject]
            sq[pending] = _factor_abs_sq(r[pending], rng.random(pending.size))
        return 0.5 * np.log(sq).reshape(take, n).sum(axis=1)

    return _sharded(count, seed, shard)


_KS_COEFF_1PCT = 1.6276  # sqrt(-log(alpha/2)/2) at alpha = 0.01


def _two_sample_ks(a, b):
    a = np.sort(a)
    b = np.sort(b)
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / len(a)
    cdf_b = np.searchsorted(b, both, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


@dataclass(frozen=True)
class RotationCheck:
    statistic: float
    threshold: float
    passed: bool
    trials: int
    phi: float


def rotation_invariance_check(
    n, trials, seed: SeedSpec, phi=1.0, share_stream=False, phase_correction=True
) -> RotationCheck:
    """Two-sample KS test of {log|Z|(., 0)} against {log|Z|(., phi)}.

    Haar rotation invariance makes the two laws identical; a sampler
    without QR phase correction fails this at the 1% level.  With
    share_stream=True both sets reuse the same draws (so phi=0 gives
    statistic exactly 0).  log|Z|(U, theta) = log|det(I - e^{-i theta} U)|
    comes from a batched slogdet, with no eigendecomposition.
    """
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    if trials < 10**3:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    rng_a = seed.rng()
    set_a = np.empty(trials)
    set_b = np.empty(trials)
    batch = max(1, 4096 // max(1, n))
    pos = 0
    rng_b = seed.rng() if share_stream else seed.shifted(1).rng()
    eye = np.eye(n)
    while pos < trials:
        take = min(batch, trials - pos)
        ua = _haar_unitary_batch(rng_a, n, take, phase_correction)
        set_a[pos : pos + take] = np.linalg.slogdet(eye - ua)[1]
        ub = _haar_unitary_batch(rng_b, n, take, phase_correction)
        set_b[pos : pos + take] = np.linalg.slogdet(eye - np.exp(-1j * phi) * ub)[1]
        pos += take
    stat = _two_sample_ks(set_a, set_b)
    threshold = float(_KS_COEFF_1PCT * np.sqrt(2.0 / trials))
    return RotationCheck(stat, threshold, bool(stat < threshold), trials, phi)
