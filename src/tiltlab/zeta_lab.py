"""Desk-scale number theory: primes, Dirichlet polynomials, weighted scans.

The prime window X = (lo, hi] is an explicit input everywhere (the
asymptotic choice x = T^eps is meaningless at reachable heights); the
default window keeps the (log T, x] shape of the theory at x = T^0.3.
A window is only ever its bounds.  Each sum over it (`dirichlet_poly` for
the scan's proxy, and `mu_alpha` save on the wide windows below) sieves it
in the same pass, one segment of (lo, hi] at a time, and takes its primes
in fixed-size chunks through a buffer the sum owns; no window's primes are
ever held, and memory does not grow with hi - lo.  Every pass stops at
PRIME_COUNT_CAP primes and marks the window truncated.
Weighted scans sample t uniformly in [T, 2T], weigh by
|zeta^(m)(1/2 + it + i alpha)|^{2k}, and reuse the self-normalized
reduction of the Monte Carlo estimator.  One `zeta_line` call gives a
scan's values and, unshifted, its weights; a shift takes one more.
`weighted_scan` returns one `ScanReport`, which `zeta-scan` writes whole.

`mu_alpha` walks no prime of a window wider than RECURSION_WIDTH * hi^(3/4)
that the Rosser-Schoenfeld bound pi(hi) < 1.25506 hi / log hi keeps below
the cap: Legendre's recursion over the ~2 sqrt(x) values of floor(x/k) gives
its prime sums at x = hi and lo in O(hi^(3/4)) time and O(sqrt(hi)) memory,
within 1.3e-14 of the walk's up to (1, 1.4e8].  It takes the base primes
with p^3 < x one numpy step each, and the rest, whose updates never read
one another's, in one ordered scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cue import SeedSpec, checked_size
from .estimator import weighted_moments
from .special import BERNOULLI_EVEN
from .threads import one_ahead
from .zeta_eval import MAX_DERIVATIVE, RS_MAX_T, zeta_line

__all__ = [
    "ScanReport",
    "ScanSpec",
    "ScanStream",
    "default_window",
    "dirichlet_poly",
    "mu_alpha",
    "checked_alphas",
    "scan_stream",
    "weighted_scan",
]

PRIME_COUNT_CAP = 10**7
SIEVE_SEGMENT = 1 << 20  # odd numbers per sieve segment: a 1 MiB bool mask
SIEVE_LIMIT = 10**12  # keeps the base primes (78,498 up to 1e6) and each segment's loop small
MU_CHUNK = 1 << 16  # primes per mu_alpha chunk: three 512 KiB float buffers
DIRICHLET_ENTRIES = 1 << 17  # complex entries per Dirichlet (heights x primes) block: 2 MiB
DIRICHLET_CHUNK = 1 << 17  # primes per Dirichlet chunk, so that one height's block fits DIRICHLET_ENTRIES
PRIME_TAIL_CHUNK = 1 << 11  # entries per ordered scatter of the prime-sum recursion's tail: about 0.3 MiB of temporaries
# mu_alpha's two routes take equal time at widths of 30-40 hi^(3/4), hi in [1e7, 1e8], 2 cores;
# 64 keeps every window with hi below 64^4 = 16,777,216 walked, which the CLI's sieve-thread test needs
RECURSION_WIDTH = 64
EM_START = 16  # n^-s is summed directly up to here; every BERNOULLI_EVEN term beyond leaves < 1e-20
EM_BLOCK = 1 << 10  # values per Euler-Maclaurin block: each temporary takes 16 KiB
HISTOGRAM_BINS = 80
HISTOGRAM_HALF_WIDTHS = 6.0  # in units of sqrt(L/2)


def _prime_segments(lo, limit, ahead=False):
    """The primes p with lo < p <= limit as an iterator of ascending int64 arrays, one per segment.

    Odd-only segmented Eratosthenes: odd n = 2j + 1 has index j, and the
    indices of (lo, limit] are sieved SIEVE_SEGMENT at a time in one bool
    mask, a segment as each array is drawn.  The base primes up to
    sqrt(limit) and the mask are made here, in the calling thread.  With
    `ahead` the segments are sieved through `threads.one_ahead`: the next
    one on a worker thread while the caller uses this one.  A limit above
    SIEVE_LIMIT raises ValueError.
    """
    limit, lo = int(limit), max(math.floor(lo), 0)
    if limit > SIEVE_LIMIT:
        raise ValueError(
            f"sieve limit {limit} is above {SIEVE_LIMIT:.0e}: each segment near it would loop "
            "over every base prime up to sqrt(limit)"
        )
    root = math.isqrt(max(limit, 0))
    base = np.empty(0, dtype=np.int64)  # the odd primes up to root
    if root >= 3:
        base = np.concatenate([base, *_prime_segments(0, root)])[1:]
    start = (lo + 1) // 2 if lo >= 2 else 0  # index 0 (n = 1) is never struck out: it stands for 2
    stop = (limit + 1) // 2 if limit >= 2 else 0
    mask = np.empty(min(SIEVE_SEGMENT, max(stop - start, 0)), dtype=bool)

    def sieve(first):
        seg = mask[: min(SIEVE_SEGMENT, stop - first)]
        seg.fill(True)
        top = 2 * (first + seg.size) - 1
        q = base[: np.searchsorted(base, math.isqrt(top), side="right")]
        # first index >= first of an odd multiple of q, and not below q*q
        offsets = np.maximum(q * q // 2, first + (q // 2 - first) % q) - first
        for step, offset in zip(q.tolist(), offsets.tolist()):
            seg[offset::step] = False
        primes = np.flatnonzero(seg)
        primes *= 2
        primes += 2 * first + 1
        if first == 0:
            primes[0] = 2
        return primes

    starts = range(start, stop, SIEVE_SEGMENT)
    return one_ahead(sieve, starts) if ahead else map(sieve, starts)


def _checked_window(window):
    """The bounds (lo, hi) of a prime window as floats, once 0 <= lo < hi <= SIEVE_LIMIT is checked."""
    lo, hi = window
    if not 0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi}]")
    if hi > SIEVE_LIMIT:
        raise ValueError(f"window hi = {hi:g} is above the sieve limit {SIEVE_LIMIT:.0e}")
    return float(lo), float(hi)


def _prime_chunks(window, buffer, extent, ahead):
    """Walk the primes of the checked window (lo, hi] through the caller's `buffer`, in order.

    Each segment of `_prime_segments` (with `ahead`, sieved a segment
    ahead on the one-ahead worker) is copied into `buffer`, cast to its
    dtype; the count filled is yielded each time the buffer is full, and
    once more for a partly filled last chunk, and the caller uses
    buffer[:count] before drawing the next.  The pass stops at
    PRIME_COUNT_CAP primes.  Once it is exhausted, the dict `extent` holds
    the window walked: lo, hi (the last prime kept when the cap clipped
    the window), count and truncated.
    """
    lo, hi = window
    truncated, count, filled, last = False, 0, 0, None
    for primes in _prime_segments(lo, math.floor(hi), ahead):
        clipped = primes.size > PRIME_COUNT_CAP - count
        primes = primes[: PRIME_COUNT_CAP - count]
        count += primes.size
        last = primes[-1] if primes.size else last
        while primes.size:
            take = min(buffer.size - filled, primes.size)
            buffer[filled : filled + take] = primes[:take]
            primes, filled = primes[take:], filled + take
            if filled == buffer.size:
                yield filled
                filled = 0
        del primes  # before the next segment's primes are made
        if clipped:
            truncated, hi = True, float(last)
            break
    if filled:
        yield filled
    extent.update(lo=lo, hi=hi, count=count, truncated=truncated)


def default_window(T):
    """The bounds (lo, hi) of the theory-shaped default window (log T, T^0.3].

    It holds no prime for T in [10, 656.14) or [1096.6, 2960.1), and those
    heights raise ValueError.
    """
    if T < 10:
        raise ValueError("default window needs T >= 10")
    lo, hi = math.log(T), T**0.3
    if lo >= hi or not any(primes.size for primes in _prime_segments(lo, hi)):
        raise ValueError(
            f"the default prime window (log T, T^0.3] = ({lo:.4g}, {hi:.4g}] is empty at "
            f"T = {T:g}: it holds a prime only for 656.14 <= T < 1096.6 and T >= 2960.1; "
            "give the window explicitly with --window-lo/--window-hi"
        )
    return lo, hi


def mu_alpha(window, alpha, extent=None):
    """Shifted mean density mu_alpha = sum_{p in X} cos(alpha log p)/p, for |alpha| < 1.

    `window` is the bounds (lo, hi), checked after alpha.  A dict `extent`
    is filled with the window summed: lo, hi, count and truncated.  alpha
    is a scalar (a float comes back) or a 1-d array (an array of one
    value per alpha comes back).

    A window wider than RECURSION_WIDTH * hi^(3/4) whose Rosser-Schoenfeld
    bound 1.25506 hi / log hi > pi(hi) is within PRIME_COUNT_CAP goes to
    `_recursed_mu_alpha`: O(hi^(3/4)) time, O(sqrt(hi)) memory, within
    1.3e-14 of the walk.  Any other is sieved in this pass (`_prime_chunks`),
    its primes summed in chunks of MU_CHUNK; each chunk takes log p and 1/p
    once for every alpha, its terms are summed pairwise and the chunk sums
    combined with math.fsum.  Either way a value depends neither on the
    other alphas, nor on the sieve's segment size, nor on the thread count.
    """
    alphas = checked_alphas(alpha)
    lo, hi = _checked_window(window)
    extent = {} if extent is None else extent
    if hi - lo > RECURSION_WIDTH * hi**0.75 and 1.25506 * hi / math.log(hi) <= PRIME_COUNT_CAP:
        values = _recursed_mu_alpha((lo, hi), alphas, extent)
    else:
        inv_p, log_p, terms = np.empty((3, min(MU_CHUNK, math.floor(hi) - math.floor(lo))))
        chunk_sums = [[] for _ in alphas.flat]
        for size in _prime_chunks((lo, hi), inv_p, extent, ahead=True):
            inv_c, log_c, terms_c = inv_p[:size], log_p[:size], terms[:size]
            np.log(inv_c, out=log_c)
            np.reciprocal(inv_c, out=inv_c)
            for a, sums in zip(alphas.flat, chunk_sums):
                np.multiply(a, log_c, out=terms_c)
                np.cos(terms_c, out=terms_c)
                terms_c *= inv_c
                sums.append(float(terms_c.sum()))
        values = np.array([math.fsum(sums) for sums in chunk_sums])
    return float(values[0]) if alphas.ndim == 0 else values


def _recursed_mu_alpha(window, alphas, extent):
    """mu_alpha over the checked window, uncapped, from `_prime_power_sum` at floor(hi) less floor(lo)."""
    lo, hi = window
    base = np.concatenate([np.empty(0, dtype=np.int64), *_prime_segments(0, math.isqrt(math.floor(hi)))])

    def window_sum(alpha):
        return _prime_power_sum(math.floor(hi), alpha, base) - _prime_power_sum(math.floor(lo), alpha, base)

    extent.update(lo=lo, hi=hi, count=int(window_sum(None)), truncated=False)
    return np.array([window_sum(a).real for a in alphas.flat])


def _prime_power_sum(x, alpha, base):
    """sum_{p <= x} p^{-s}, s = 1 + i alpha, by Legendre's recursion; pi(x) when alpha is None.

    S(v) starts as sum_{2 <= n <= v} n^{-s} (v - 1 for the count) at the
    values of floor(x/k): small[v] for v <= r = isqrt(x), large[k - 1] for
    v = x // k > r.  Each prime p <= r of the ascending `base`, in turn,
    takes S(v) -= p^{-s} (S(v // p) - S(p - 1)) for all v >= p^2.  The
    primes with p^3 < x do so one per step.  The rest (the tail: 1,139 of
    the 1,229 at x = 1e8) write only large[k - 1] for k <= x // p^2 <= p,
    and read large only at k p - 1 >= p - 1, above every index a smaller
    tail prime writes, and small, which only head primes write: no tail
    prime reads what another writes.  So the tail's terms are gathered and
    subtracted in one `np.subtract.at` per PRIME_TAIL_CHUNK of them, laid
    out in ascending p, which applies each entry's subtractions in the
    loop's order.  Every value is the loop's, bit for bit, on numpy builds
    whose in-place multiply of a one-element complex array is unfused (no
    fused multiply-add) while longer and out-of-place multiplies are fused,
    as on AVX-512 builds of numpy 2.4: the tail mimics that split below.
    """
    r = math.isqrt(x)
    n = x // (r + 1)  # the k with x // k > r
    if alpha is None:
        small, large, weights = np.maximum(np.arange(-1, r), 0), x // np.arange(1, n + 1) - 1, np.ones_like(base)
    else:
        small, large = _power_sums(np.arange(r + 1), alpha), _power_sums(x // np.arange(1, n + 1), alpha)
        weights = np.exp(-(1.0 + 1j * alpha) * np.log(base))
    head = np.searchsorted(base**3, x)  # the primes with p^3 < x
    for p, w in zip(base[:head].tolist(), weights):
        c, top = small[p - 1], min(n, x // (p * p))
        mid = min(n // p, top)  # S(x // (k p)) is large[k p - 1] up to k = mid, in small beyond
        # each run is gathered once the one before is written, which it does not read:
        # the first two write only large, and only the first reads it
        _subtract_run(large[:mid], large[p - 1 : p * mid : p].copy(), c, w)
        _subtract_run(large[mid:top], small[x // (np.arange(mid + 1, top + 1) * p)], c, w)
        if p * p <= r:
            _subtract_run(small[p * p :], np.repeat(small[p : r // p + 1], p)[: r - p * p + 1], c, w)
    tail = base[head : np.searchsorted(base, r, side="right")]
    tops = x // (tail * tail)
    ends = np.cumsum(tops)  # tail prime i takes the entries k = 1..tops[i], up to ends[i]
    for first in range(0, int(ends[-1]) if ends.size else 0, PRIME_TAIL_CHUNK):
        entry = np.arange(first, min(first + PRIME_TAIL_CHUNK, ends[-1]))
        i = np.searchsorted(ends, entry, side="right")
        p, top = tail[i], tops[i]
        k = entry - ends[i] + top + 1
        kp = k * p
        src = np.where(kp <= n, large[np.minimum(kp, n) - 1], small[np.minimum(x // kp, r)])
        src -= small[p - 1]
        if alpha is not None:  # the count's weights are 1
            # the loop multiplies its runs (k <= n // p, then the rest) in place, and numpy
            # multiplies a one-element array in place without its vector loop's fused
            # multiply-add; out of place, src * w takes that vector loop at any length
            mid = np.minimum(n // p, top)
            one = np.flatnonzero(np.where(kp <= n, mid, top - mid) == 1)
            w = weights[head + i]
            a, b = src[one], w[one]
            src = src * w
            src.real[one] = a.real * b.real - a.imag * b.imag
            src.imag[one] = a.real * b.imag + a.imag * b.real
        np.subtract.at(large, k - 1, src)
    return large[0] if x > r else small[x]


def _subtract_run(dst, src, c, w):
    """dst -= w (src - c), one run of the prime-sum recursion, computed in place in src."""
    src -= c
    src *= w
    dst -= src


def _power_sums(v, alpha):
    """sum_{2 <= n <= v} n^{-s}, s = 1 + i alpha, at each entry of the int array v, EM_BLOCK at a time.

    Direct up to EM_START, Euler-Maclaurin beyond, where zeta(s) cancels.
    The tail at x is x^{-s} (1/2 - sum_j c_j x^{1-2j}) with
    c_j = B_2j/(2j)! (s)_{2j-1}, and each block sums only the terms j up to
    the last with |c_j| x^{1-2j} >= 1e-20 at its smallest x: the
    rest sit below the float64 resolution of the leading 1/2 at every x
    of the block, so the value is the full series' to rounding.  That is
    9 of the 16 terms at x = 16, 2 at x = 1e4 and 1 at 1e8.  The pole term
    -expm1(-i alpha log v)/(i alpha) is taken through sinc: it is log v at
    alpha = 0 and does not overflow at a subnormal alpha, so no alpha is a
    special case.
    """
    s = 1.0 + 1j * alpha
    coeffs = [b / math.factorial(2 * j) * math.prod(s + np.arange(2 * j - 1)) for j, b in enumerate(BERNOULLI_EVEN, 1)]

    def tail(x):  # sum_{n <= x} n^{-s} less a constant
        x_min = float(np.min(x, initial=np.inf))  # an empty block sums no term
        kept = max((j for j, c in enumerate(coeffs, 1) if abs(c) * x_min ** (1 - 2 * j) >= 1e-20), default=0)
        log_x, inv_squares, poly = np.log(x), 1.0 / (x * x), 0.0
        for coeff in reversed(coeffs[:kept]):
            poly = (poly + coeff) * inv_squares
        h = alpha * log_x / 2  # -expm1(-2ih)/(i alpha) = log x (sin 2h/2h - i sin h * sin h/h)
        pole = log_x * (np.sinc(2 * h / np.pi) - 1j * np.sin(h) * np.sinc(h / np.pi))
        return np.exp(-s * log_x) * (0.5 - x * poly) + pole

    head = np.concatenate([[0.0, 0.0], np.cumsum(np.exp(-s * np.log(np.arange(2.0, EM_START + 1))))])
    blocks = np.split(v, range(EM_BLOCK, v.size, EM_BLOCK))
    start = tail(float(EM_START))
    return np.concatenate([head[np.minimum(b, EM_START)] + (tail(np.maximum(b, EM_START) * 1.0) - start) for b in blocks])


def checked_alphas(alpha):
    """alpha (a scalar or a 1-d array) as a float array, once every |alpha| < 1 is checked."""
    alphas = np.asarray(alpha, dtype=float)
    if alphas.ndim > 1:
        raise ValueError(f"alpha must be a scalar or a 1-d array, got shape {alphas.shape}")
    if not np.all(np.abs(alphas) < 1):
        raise ValueError(f"|alpha| must be < 1, got {alpha}")
    return alphas


def dirichlet_poly(t_arr, window):
    """P(t) = sum_{p in X} p^{-1/2 - it} for an array of heights t, over the bounds (lo, hi) of X.

    The window is sieved in this pass, inline (beside these sums the sieve
    costs little, and a worker would hold a second segment), and stops at
    the same capped prime as `mu_alpha`.  Its primes come in chunks of
    DIRICHLET_CHUNK and the heights in blocks of DIRICHLET_ENTRIES //
    (primes in the chunk), at least one, so no (heights x primes) block
    outgrows DIRICHLET_ENTRIES; each chunk's sums are added to the
    heights' totals in turn.
    """
    t_arr = np.asarray(t_arr, dtype=float)
    lo, hi = _checked_window(window)
    out = np.zeros(t_arr.shape, dtype=np.complex128)
    flat, res = t_arr.ravel(), out.ravel()
    amp, log_p = np.empty((2, min(DIRICHLET_CHUNK, math.floor(hi) - math.floor(lo))))
    for size in _prime_chunks((lo, hi), amp, {}, ahead=False):
        p, log_c = amp[:size], log_p[:size]
        np.log(p, out=log_c)
        np.divide(1.0, np.sqrt(p, out=p), out=p)
        heights = max(1, DIRICHLET_ENTRIES // size)
        terms = np.empty(min(heights, flat.size) * size, dtype=np.complex128)
        for start in range(0, flat.size, heights):
            blk = flat[start : start + heights]
            block = terms[: blk.size * size].reshape(blk.size, size)
            block.real = 0.0
            np.multiply.outer(-blk, log_c, out=block.imag)  # -i t log p
            np.exp(block, out=block)
            block *= p
            res[start : start + heights] += block.sum(axis=1)
        terms = block = None  # let this chunk's block go before the next one is made
    return out


@dataclass(frozen=True)
class ScanReport:
    """One weighted scan's results, each a plain value; `zeta-scan` writes them all.

    The moments (orders 0..4) and their errors are the self-normalized ones
    of the samples with a finite log|zeta|, and proxy_correlation is the
    unweighted correlation of Re P(t) with log|zeta| over them.  The
    histogram's weights are exp(log-weight - the largest), total_weight
    their sum over all raw_count samples; `window` is the window summed, as
    `mu_alpha` fills `extent`.  Bins, underflow and overflow that do not add
    up to total_weight (a NaN value lands in none) raise FloatingPointError.
    """

    weighted_mean: float
    central_moments: list[float]
    standard_errors: list[float]  # [1] = SE of the mean, [n>=2] = SE of m_n
    ess: float
    low_ess: bool
    proxy_correlation: float
    total_weight: float
    raw_count: int
    underflow_weight: float
    overflow_weight: float
    bin_edges: list[float]
    weighted_counts: list[float]
    window: dict

    def __post_init__(self):
        mass = math.fsum(self.weighted_counts) + self.underflow_weight + self.overflow_weight
        if not abs(mass - self.total_weight) <= 1e-9 * self.total_weight:
            raise FloatingPointError(f"histogram mass {mass!r} does not add up to total_weight {self.total_weight!r}")


@dataclass(frozen=True)
class ScanSpec:
    """One weighted scan: t ~ U[T, 2T], weight |zeta^(m)(1/2+it+i alpha)|^{2k}.

    `window` is the bounds (lo, hi), checked once every other field passes, or None for
    `default_window(T)`; the scan sieves it.
    """

    T: float
    samples: int
    k: int = 0
    m: int = 0
    alpha: float = 0.0
    window: tuple | None = None
    seed: SeedSpec = SeedSpec(42)

    def __post_init__(self):
        if np.ndim(self.alpha):
            raise ValueError(f"alpha must be a scalar: a scan has one shift, got {self.alpha!r}")
        for name in ("T", "samples", "alpha"):
            value = getattr(self, name)
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.T < 10:
            raise ValueError(f"T must be >= 10, got {self.T}")
        checked_size("samples", self.samples, 10**2)
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 0):
            raise ValueError(f"k must be a nonnegative integer, got {self.k}")
        if not (isinstance(self.m, (int, np.integer)) and 0 <= self.m <= MAX_DERIVATIVE):
            raise ValueError(f"derivative order m must be in [0, {MAX_DERIVATIVE}], got {self.m}")
        checked_alphas(self.alpha)
        top = 2.0 * self.T + (max(self.alpha, 0.0) if self.k else 0.0)
        if top > RS_MAX_T:
            raise ValueError(
                f"T = {self.T:g}: the scan reaches t = {top:g} (t in [T, 2T], shifted by alpha for "
                f"the weight), above the evaluator's ceiling {RS_MAX_T:.0e}"
            )
        window = default_window(self.T) if self.window is None else _checked_window(self.window)
        object.__setattr__(self, "window", window)


@dataclass(frozen=True)
class ScanStream:
    """Raw scan draws: sample heights, log|zeta| values, log-weights, Re P(t) proxy."""

    t: np.ndarray
    values: np.ndarray
    log_weights: np.ndarray
    proxy: np.ndarray


def scan_stream(spec: ScanSpec) -> ScanStream:
    """Draw t ~ U[T, 2T]; evaluate log|zeta(1/2+it)|, the log-weights and the prime proxy.

    The values are log|row 0| of one `zeta_line` call, of order m when
    the weight is unshifted, so its row m gives the log-weights
    2k log|zeta^(m)| at the same heights; a shift alpha takes one more
    call at t + alpha.  At k = 0 the call is of order 0 and the weights are 0.
    """
    rng = spec.seed.rng()
    t = spec.T * (1.0 + rng.random(spec.samples))
    rows = zeta_line(t, spec.m if spec.k and not spec.alpha else 0)
    with np.errstate(divide="ignore"):
        values = np.log(np.abs(rows[0]))
        if spec.k and spec.alpha:
            rows = zeta_line(t + spec.alpha, spec.m)
        log_w = 2.0 * spec.k * np.log(np.abs(rows[-1])) if spec.k else np.zeros(t.shape)
    proxy = dirichlet_poly(t, spec.window).real
    return ScanStream(t=t, values=values, log_weights=log_w, proxy=proxy)


def weighted_scan(spec: ScanSpec) -> ScanReport:
    """The `ScanReport` of one scan: weighted moments, proxy correlation and histogram.

    One `mu_alpha` pass over the window, before any zeta value, gives the
    histogram's width from L = sum 1/p and the report's `window`, and
    raises ValueError for a window that holds no prime.  The histogram has
    HISTOGRAM_BINS bins of HISTOGRAM_HALF_WIDTHS sqrt(L/2) on each side of
    the weighted mean.  Near-zero |zeta| samples drive log to -inf; they
    land in the underflow bin with their (vanishing, at k >= 1) weight
    rather than being dropped.
    """
    window = {}
    mertens = mu_alpha(spec.window, 0.0, window)
    if not window["count"]:
        raise ValueError(
            f"the prime window ({window['lo']:g}, {window['hi']:g}] holds no prime; "
            "the scan's prime proxy needs at least one"
        )
    stream = scan_stream(spec)
    log_w = stream.log_weights
    finite = np.isfinite(stream.values)
    moments = weighted_moments(stream.values[finite], log_w[finite], 4)
    half_width = HISTOGRAM_HALF_WIDTHS * math.sqrt(0.5 * max(mertens, 1e-12))
    center = moments.weighted_mean
    edges = np.linspace(center - half_width, center + half_width, HISTOGRAM_BINS + 1)
    weights = np.exp(log_w - np.max(log_w))
    return ScanReport(
        weighted_mean=moments.weighted_mean,
        central_moments=moments.central_moments,
        standard_errors=moments.standard_errors,
        ess=moments.ess,
        low_ess=moments.low_ess,
        proxy_correlation=float(np.corrcoef(stream.proxy[finite], stream.values[finite])[0, 1]),
        total_weight=float(weights.sum()),
        raw_count=int(spec.samples),
        underflow_weight=float(weights[stream.values < edges[0]].sum()),
        overflow_weight=float(weights[stream.values > edges[-1]].sum()),
        bin_edges=edges.tolist(),
        weighted_counts=np.histogram(stream.values, bins=edges, weights=weights)[0].tolist(),
        window=window,
    )
