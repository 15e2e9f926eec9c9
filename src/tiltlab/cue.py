"""CUE streams of log|Z(U, theta)| = log|det(I - e^{-i theta} U)|, Haar and tilted.

Two streams, one shard driver:

* ``log_char_poly_stream`` -- log|Z| drawn from the law
  |Z|^{2k} d_Haar / M_N(2k) for integer k >= 0 (plain Haar at k = 0),
  through the splitting of det(I - U) into independent factors
  1 + r_j e^{i w_j}.  These are the deformed Verblunsky coefficients of
  the circular Jacobi ensemble (Bourgade-Nikeghbali-Rouault), so one O(N)
  pass per draw needs no matrix; that is what makes 10^5-sample Monte
  Carlo runs at N=200 cheap.
* ``qr_log_char_poly_stream`` -- complex Ginibre -> QR -> multiply Q by
  the phases of diag(R) (without that correction Q is *not* Haar;
  Mezzadri), then a batched slogdet.  O(N^3): the dense cross-check.

Streams are sharded by fixed-size blocks of the (master_seed,
stream_index) space, so results never depend on how many workers
consumed them; the shards run on a thread pool of TILTLAB_THREADS
workers (default: the CPUs this process may use).  Each worker of the
splitting stream keeps its own scratch.  At k = 0 (Haar) that is a shard's
radii (8 bytes x 4096 x N) plus three row blocks of about 256 KiB; under
a tilt (k >= 1) the draw order needs whole-shard arrays, about
8 bytes x 4096 x N x (k + 5).
``rotation_invariance_check`` draws both its sets from the dense stream:
the first at theta = 0, the second at theta = phi from the stream indices
after the first's.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .threads import thread_count

__all__ = [
    "SeedSpec",
    "log_char_poly_stream",
    "qr_log_char_poly_stream",
    "rotation_invariance_check",
    "RotationCheck",
]

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


def checked_size(name, value, least=1):
    """Raise ValueError naming `name` unless value is an integer >= least; 100.5 would fail deep in numpy."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _haar_unitary_batch(rng, n, count):
    """count Haar(U(n)) draws by QR, each Q multiplied by the phases of diag(R)."""
    shape = (count, n, n)
    a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    q, r = np.linalg.qr(a)
    d = np.einsum("...ii->...i", r).copy()
    return q * (d / np.abs(d))[..., None, :]


def _haar_log_abs(rng, n, take, theta=0.0):
    """log|det(I - e^{-i theta} U)| for take QR Haar draws U, by batched slogdet."""
    u = _haar_unitary_batch(rng, n, take)
    return np.linalg.slogdet(np.eye(n) - np.exp(-1j * theta) * u)[1]


STREAM_SHARD = 4096
# doubles in one Haar row block of a scratch buffer: three blocks (768 KiB) stay
# in L2, and with two workers each numpy call is long beside its GIL handoff
_BLOCK_DOUBLES = 2**15


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
    workers = thread_count(shards)
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


def _factor_abs_sq(r, u, out):
    """|1 + r e^{iw}|^2 at w = 2 pi u into out, as (1-r)^2 + 4 r cos^2(w/2): no cancellation near 0.

    u is overwritten.
    """
    np.multiply(r, 4.0, out=out)
    np.multiply(u, np.pi, out=u)
    np.cos(u, out=u)
    np.square(u, out=u)
    out *= u
    np.subtract(1.0, r, out=u)
    np.square(u, out=u)
    out += u
    return out


def log_char_poly_stream(n, count, seed: SeedSpec, k=0):
    """count i.i.d. values of log|Z(U, 0)| under |Z|^{2k} d_Haar / M_N(2k); k = 0 is Haar.

    Exact, with no importance weights (Bourgade-Hughes-Nikeghbali-Yor
    splitting): det(I - U) has the law of prod_{j=1..n} (1 + r_j e^{i w_j})
    with r_j^2 ~ Beta(1, j-1) (r_1 = 1), w_j uniform, all independent.  The
    weight |Z|^{2k} factorizes, so each factor is tilted on its own: r_j^2
    becomes the mixture of Beta(1+m, j-1) over m = 0..k, drawn as
    1 - prod_{i<=m} U_i^{1/(j-1+i)}, and w_j given r_j is drawn by rejection
    against the envelope (1+r_j)^{2k}.  k must be a nonnegative integer.
    Shard j of fixed size uses stream (master_seed, stream_index + j), so
    the output is bit-stable regardless of how shards are scheduled.
    """
    checked_size("n", n)
    checked_size("count", count)
    if not (k >= 0 and float(k).is_integer()):
        raise ValueError(f"tilt k must be a nonnegative integer, got {k}")
    k = int(k)
    thresholds = _split_mixture_thresholds(n, k)
    inv_denoms = 1.0 / (np.arange(1, n, dtype=float) + np.arange(k + 1)[:, None])
    size = min(STREAM_SHARD, count)
    # Haar rows go through in blocks of about _BLOCK_DOUBLES; a tilt draws its
    # mixture uniforms after every exponential layer and its envelope uniforms
    # after every phase, so it takes the whole shard as one block
    rows = size if k else min(size, max(1, _BLOCK_DOUBLES // n))

    def scratch():
        # exponentials; under a tilt, the mixture uniforms and then the
        # rejection envelope; r (whole shard); |1 + r e^{iw}|^2; the phase uniforms
        flat = [(k + 1) * rows * (n - 1), size * n if k else 0, size * n, rows * n, rows * n]
        return [np.empty(length) for length in flat]

    def shard(rng, take, buffers):
        expo, spare, r, sq, u = buffers
        radii = r[: take * n].reshape(take, n)
        radii[:, 0] = 1.0
        blocks = [(lo, min(rows, take - lo)) for lo in range(0, take, rows)]
        for lo, height in blocks:
            layers = expo[: (k + 1) * height * (n - 1)].reshape(k + 1, height, n - 1)
            rng.standard_exponential(out=layers)
            log_rest = np.multiply(layers[0], -inv_denoms[0], out=layers[0])
            if k:
                mix = rng.random(out=spare[: height * (n - 1)].reshape(height, n - 1))
            for i in range(1, k + 1):
                # the uniform passes threshold i-1 exactly when r^2 takes a component m >= i
                layers[i] *= inv_denoms[i]
                np.subtract(log_rest, layers[i], out=log_rest, where=mix > thresholds[i - 1])
            np.expm1(log_rest, out=log_rest)
            np.sqrt(np.negative(log_rest, out=log_rest), out=radii[lo : lo + height, 1:])
        sums = np.empty(take)
        for lo, height in blocks:
            rb, sb, ub = r[lo * n : (lo + height) * n], sq[: height * n], u[: height * n]
            _factor_abs_sq(rb, rng.random(out=ub), sb)
            if k:
                # the first rejection round tests every factor, in place
                envelope = np.add(rb, 1.0, out=spare[: height * n])
                envelope **= 2 * k
                envelope *= rng.random(out=ub)
                np.copyto(ub, sb)
                ub **= k
                pending = np.flatnonzero(envelope > ub)
                while pending.size:
                    rp = rb[pending]
                    sb[pending] = _factor_abs_sq(rp, rng.random(pending.size), np.empty(pending.size))
                    reject = rng.random(pending.size) * (1.0 + rp) ** (2 * k) > sb[pending] ** k
                    pending = pending[reject]
            sums[lo : lo + height] = 0.5 * np.log(sb, out=sb).reshape(height, n).sum(axis=1)
        return sums

    return _sharded(count, seed, shard, scratch=scratch)


def qr_log_char_poly_stream(n, count, seed: SeedSpec, theta=0.0):
    """count i.i.d. values of log|Z(U, theta)| under Haar, via dense QR and slogdet.

    Sharded like log_char_poly_stream, in shards of 2048 // n draws.
    """
    checked_size("n", n)
    checked_size("count", count)

    def shard(rng, take, _buffers):
        return _haar_log_abs(rng, n, take, theta)

    return _sharded(count, seed, shard, max(1, 2048 // n))

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


def rotation_invariance_check(n, trials, seed: SeedSpec, phi=1.0) -> RotationCheck:
    """Two-sample KS test of {log|Z|(., 0)} against {log|Z|(., phi)}, phi finite.

    Haar rotation invariance makes the two laws identical; QR draws
    without the phase correction of `_haar_unitary_batch` fail this at the
    1% level.  The first set is qr_log_char_poly_stream(n, trials, seed);
    the second is that stream at theta = phi, starting at
    stream_index + trials, after every stream of the first.
    """
    checked_size("n", n)
    checked_size("trials", trials, 10**3)
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    set_a = qr_log_char_poly_stream(n, trials, seed)
    set_b = qr_log_char_poly_stream(n, trials, seed.shifted(trials), phi)
    stat = _two_sample_ks(set_a, set_b)
    threshold = float(_KS_COEFF_1PCT * np.sqrt(2.0 / trials))
    return RotationCheck(stat, threshold, bool(stat < threshold), trials, phi)
