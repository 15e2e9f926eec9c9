"""Desk-scale number theory: primes, Dirichlet polynomials, weighted scans.

The prime window X = (lo, hi] is an explicit input everywhere (the
asymptotic choice x = T^eps is meaningless at reachable heights); the
default window keeps the (log T, x] shape of the theory at x = T^0.3.
A window's primes come from a segmented sieve over (lo, hi] alone, which
stops at PRIME_COUNT_CAP primes and marks the window truncated; its
memory does not grow with hi - lo.  A PrimeWindow holds its primes once,
in the sieve's output; `mu_alpha` over bounds sums each segment's primes
as they are sieved and never holds the window.  Sums over a window run
in cache-sized chunks.
Weighted scans sample t uniformly in [T, 2T], weigh by
|zeta^(m)(1/2 + it + i alpha)|^{2k}, and reuse the self-normalized
reduction of the Monte Carlo estimator.  One `zeta_line` call gives a
scan's values and, unshifted, its weights; a shift takes one more.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .cue import SeedSpec, checked_size
from .estimator import weighted_moments
from .threads import one_ahead
from .zeta_eval import RS_MAX_T, zeta_line

__all__ = [
    "PrimeWindow",
    "WeightedHistogram",
    "ScanSpec",
    "ScanStream",
    "sieve_primes",
    "prime_count_bound",
    "default_window",
    "dirichlet_poly_many",
    "mertens_l",
    "mu_alpha",
    "checked_alphas",
    "scan_stream",
    "weighted_scan",
]

PRIME_COUNT_CAP = 10**7
SIEVE_SEGMENT = 1 << 20  # odd numbers per sieve segment: a 1 MiB bool mask
SIEVE_LIMIT = 10**12  # keeps the base primes (78,498 up to 1e6) and each segment's loop small
MU_CHUNK = 1 << 16  # primes per mu_alpha chunk (three 512 KiB float buffers) and per ascending check
DIRICHLET_ENTRIES = 1 << 17  # complex entries per Dirichlet (heights x primes) block: 2 MiB
DIRICHLET_CHUNK = 1 << 17  # primes per Dirichlet chunk, so that one height's block fits DIRICHLET_ENTRIES
HISTOGRAM_BINS = 80
HISTOGRAM_HALF_WIDTHS = 6.0  # in units of sqrt(L/2)


def prime_count_bound(lo, hi):
    """A proven upper bound on the number of primes p with lo < p <= hi, for integers lo >= 0.

    The least of three: the odd numbers in (lo, hi] plus one for 2; Dusart's
    (1999) pi(x) <= x/ln x (1 + 1.2762/ln x) for x > 1 at hi, less Rosser and
    Schoenfeld's pi(x) >= x/ln x for x >= 17 at lo; and Montgomery and
    Vaughan's (1973) pi(x + y) - pi(x) <= 2y/ln y for y = hi - lo > 1.  The
    real bounds are floored after adding 1, which covers their rounding.
    """
    if hi <= lo:
        return 0
    bounds = [(hi + 1) // 2 - (lo + 1) // 2 + (lo < 2 <= hi)]
    if hi >= 2:
        log_hi = math.log(hi)
        below_lo = lo / math.log(lo) if lo >= 17 else 0.0
        bounds.append(math.floor(hi / log_hi * (1.0 + 1.2762 / log_hi) - below_lo + 1.0))
    if hi - lo >= 2:
        bounds.append(math.floor(2.0 * (hi - lo) / math.log(hi - lo) + 1.0))
    return min(bounds)


def sieve_primes(limit, lo=0, cap=None):
    """The primes p with lo < p <= limit, ascending; only the first `cap` if given.

    The segments of `_prime_segments` are copied into one int64 output
    sized by `prime_count_bound` (and `cap`), and sieving stops once `cap`
    primes are found; the result is a view of the output's filled head,
    and the unfilled tail is never touched.  Memory is one segment's mask
    and primes, the base primes up to sqrt(limit) and the output; it does
    not grow with limit - lo.  A limit above SIEVE_LIMIT raises ValueError.
    """
    segments = _prime_segments(lo, limit)
    size = prime_count_bound(max(math.floor(lo), 0), int(limit))
    capped = cap is not None and cap <= size
    out = np.empty(cap if capped else size, dtype=np.int64)
    found = 0
    for primes in segments:
        if primes.size > out.size - found and not capped:
            raise RuntimeError(
                f"more primes in ({lo}, {limit}] than the bound {out.size}: prime_count_bound is wrong"
            )
        take = min(primes.size, out.size - found)
        out[found : found + take] = primes[:take]
        found += take
        del primes  # before the next segment's primes are made
        if capped and found == out.size:
            break
    return out[:found]


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


@dataclass(frozen=True)
class PrimeWindow:
    """Explicit prime interval X = (lo, hi] with its sieved prime list.

    `truncated` is true when PRIME_COUNT_CAP clipped the requested hi down
    to the cap-th prime of the window.
    """

    lo: float
    hi: float
    primes: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        _check_bounds(self.lo, self.hi)
        primes = np.asarray(self.primes, dtype=np.int64)
        for lo in range(0, primes.size - 1, MU_CHUNK):  # a bool temporary per chunk, not per prime
            chunk = primes[lo : lo + MU_CHUNK + 1]
            if not np.all(chunk[1:] > chunk[:-1]):
                raise ValueError("prime list must be strictly ascending")
        if primes.size and (primes[0] <= self.lo or primes[-1] > self.hi):
            raise ValueError("prime list escapes the window bounds")
        object.__setattr__(self, "primes", primes)

    @classmethod
    def from_bounds(cls, lo, hi):
        _check_bounds(lo, hi)
        primes = sieve_primes(math.floor(hi), lo=lo, cap=PRIME_COUNT_CAP + 1)
        truncated = len(primes) > PRIME_COUNT_CAP
        if truncated:
            primes = primes[:PRIME_COUNT_CAP]
            hi = float(primes[-1])
        return cls(lo=float(lo), hi=float(hi), primes=primes, truncated=truncated)


def _check_bounds(lo, hi):
    if not 0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi}]")
    if hi > SIEVE_LIMIT:
        raise ValueError(f"window hi = {hi:g} is above the sieve limit {SIEVE_LIMIT:.0e}")


def default_window(T):
    """The theory-shaped default window (log T, T^0.3].

    It holds no prime for T in [10, 656.14) or [1096.6, 2960.1), and those
    heights raise ValueError.
    """
    if T < 10:
        raise ValueError("default window needs T >= 10")
    lo, hi = math.log(T), T**0.3
    window = PrimeWindow.from_bounds(lo, hi) if lo < hi else None
    if window is None or window.primes.size == 0:
        raise ValueError(
            f"the default prime window (log T, T^0.3] = ({lo:.4g}, {hi:.4g}] is empty at "
            f"T = {T:g}: it holds a prime only for 656.14 <= T < 1096.6 and T >= 2960.1; "
            "give the window explicitly with --window-lo/--window-hi"
        )
    return window


def mertens_l(window: PrimeWindow) -> float:
    """L = sum_{p in X} 1/p, the alpha = 0 case of `mu_alpha`."""
    return mu_alpha(window, 0.0)


def mu_alpha(window, alpha, extent=None):
    """Shifted mean density mu_alpha = sum_{p in X} cos(alpha log p)/p, for |alpha| < 1.

    `window` is a PrimeWindow or (lo, hi) bounds.  Bounds are checked
    after alpha, as `PrimeWindow.from_bounds` checks them, and sieved in
    this pass: each segment's primes go straight into the sums while a
    worker thread sieves the next segment (`threads.one_ahead`), so the
    window's primes are never held.  As in `from_bounds`, the pass stops
    at PRIME_COUNT_CAP primes.  A dict `extent` is filled with the window
    summed: lo, hi (the last prime kept when the cap clipped the window),
    count and truncated.

    alpha is a scalar (a float comes back) or a 1-d array (an array of one
    value per alpha comes back).  The primes are summed in chunks of
    MU_CHUNK, cut at the same boundaries on both routes; each chunk takes
    log p and 1/p once for every alpha, its terms are summed pairwise and
    the chunk sums combined with math.fsum, so a value depends neither on
    the route, nor on the other alphas, nor on the thread count.
    """
    alphas = checked_alphas(alpha)
    if isinstance(window, PrimeWindow):
        lo, hi, truncated = window.lo, window.hi, window.truncated
        segments, cap = [window.primes], window.primes.size
    else:
        lo, hi = window
        _check_bounds(lo, hi)
        lo, hi, truncated = float(lo), float(hi), False
        segments, cap = _prime_segments(lo, math.floor(hi), ahead=True), PRIME_COUNT_CAP
    inv_p, log_p, terms = np.empty((3, min(MU_CHUNK, cap, prime_count_bound(math.floor(lo), math.floor(hi)))))
    chunk_sums = [[] for _ in alphas.flat]

    def add_chunk(size):
        inv_c, log_c, terms_c = inv_p[:size], log_p[:size], terms[:size]
        np.log(inv_c, out=log_c)
        np.reciprocal(inv_c, out=inv_c)
        for a, sums in zip(alphas.flat, chunk_sums):
            np.multiply(a, log_c, out=terms_c)
            np.cos(terms_c, out=terms_c)
            terms_c *= inv_c
            sums.append(float(terms_c.sum()))

    count = filled = 0
    last = None
    for primes in segments:
        clipped = primes.size > cap - count
        primes = primes[: cap - count]
        count += primes.size
        last = primes[-1] if primes.size else last
        while primes.size:  # into the chunk buffer, a chunk summed each time it fills
            take = min(MU_CHUNK - filled, primes.size)
            inv_p[filled : filled + take] = primes[:take]
            primes, filled = primes[take:], filled + take
            if filled == MU_CHUNK:
                add_chunk(filled)
                filled = 0
        del primes  # before the next segment's primes are made
        if clipped:
            truncated, hi = True, float(last)
            break
    if filled:
        add_chunk(filled)
    if extent is not None:
        extent.update(lo=lo, hi=hi, count=count, truncated=truncated)
    values = np.array([math.fsum(sums) for sums in chunk_sums])
    return float(values[0]) if alphas.ndim == 0 else values


def checked_alphas(alpha):
    """alpha (a scalar or a 1-d array) as a float array, once every |alpha| < 1 is checked."""
    alphas = np.asarray(alpha, dtype=float)
    if alphas.ndim > 1:
        raise ValueError(f"alpha must be a scalar or a 1-d array, got shape {alphas.shape}")
    if not np.all(np.abs(alphas) < 1):
        raise ValueError(f"|alpha| must be < 1, got {alpha}")
    return alphas


def dirichlet_poly_many(t_arr, window: PrimeWindow):
    """P(t) = sum_{p in X} p^{-1/2 - it} for an array of heights t.

    The window's primes go in chunks of DIRICHLET_CHUNK and the heights in
    blocks of DIRICHLET_ENTRIES // (primes in the chunk), at least one, so
    no (heights x primes) block outgrows DIRICHLET_ENTRIES; each chunk's
    sums are added to the heights' totals in turn.  A window of one chunk
    is one pass over the heights.
    """
    t_arr = np.asarray(t_arr, dtype=float)
    out = np.zeros(t_arr.shape, dtype=np.complex128)
    flat = t_arr.ravel()
    res = out.ravel()
    for start in range(0, window.primes.size, DIRICHLET_CHUNK):
        p = window.primes[start : start + DIRICHLET_CHUNK].astype(float)
        log_p = np.log(p)
        amp = np.divide(1.0, np.sqrt(p, out=p), out=p)
        chunk = max(1, DIRICHLET_ENTRIES // p.size)
        phases = np.empty(min(chunk, flat.size) * p.size)
        terms = np.empty(phases.size, dtype=np.complex128)
        for lo in range(0, flat.size, chunk):
            blk = flat[lo : lo + chunk]
            block = terms[: blk.size * p.size].reshape(blk.size, p.size)
            np.multiply(np.outer(blk, log_p, out=phases[: block.size].reshape(block.shape)), -1j, out=block)
            np.exp(block, out=block)
            block *= amp
            res[lo : lo + chunk] += block.sum(axis=1)
    return out


@dataclass(frozen=True)
class WeightedHistogram:
    """Weighted empirical distribution with explicit under/overflow mass."""

    bin_edges: np.ndarray
    weighted_counts: np.ndarray
    total_weight: float
    raw_count: int
    underflow_weight: float = 0.0
    overflow_weight: float = 0.0

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.weighted_counts, dtype=float)
        if len(counts) != len(edges) - 1:
            raise ValueError("need len(weighted_counts) == len(bin_edges) - 1")
        if np.any(counts < 0) or min(self.underflow_weight, self.overflow_weight) < 0:
            raise ValueError("weights must be nonnegative")
        if self.total_weight <= 0:
            raise ValueError("total_weight must be positive")
        mass = counts.sum() + self.underflow_weight + self.overflow_weight
        if abs(mass - self.total_weight) > 1e-9 * self.total_weight:
            raise ValueError("histogram mass does not add up to total_weight")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "weighted_counts", counts)


@dataclass(frozen=True)
class ScanSpec:
    """One weighted scan: t ~ U[T, 2T], weight |zeta^(m)(1/2+it+i alpha)|^{2k}.

    `window` is a PrimeWindow, (lo, hi) bounds sieved once every other field passes, or None.
    """

    T: float
    samples: int
    k: int = 0
    m: int = 0
    alpha: float = 0.0
    window: PrimeWindow | tuple | None = None
    seed: SeedSpec = SeedSpec(42)

    def __post_init__(self):
        for name in ("T", "samples", "alpha"):
            value = getattr(self, name)
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.T < 10:
            raise ValueError(f"T must be >= 10, got {self.T}")
        checked_size("samples", self.samples, 10**2)
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 0):
            raise ValueError(f"k must be a nonnegative integer, got {self.k}")
        if not (isinstance(self.m, (int, np.integer)) and 0 <= self.m <= 4):
            raise ValueError(f"derivative order m must be in [0, 4], got {self.m}")
        if not abs(self.alpha) < 1:
            raise ValueError(f"|alpha| must be < 1, got {self.alpha}")
        top = 2.0 * self.T + (max(self.alpha, 0.0) if self.k else 0.0)
        if top > RS_MAX_T:
            raise ValueError(
                f"T = {self.T:g}: the scan reaches t = {top:g} (t in [T, 2T], shifted by alpha for "
                f"the weight), above the evaluator's ceiling {RS_MAX_T:.0e}"
            )
        if self.window is None:
            object.__setattr__(self, "window", default_window(self.T))
        elif not isinstance(self.window, PrimeWindow):
            object.__setattr__(self, "window", PrimeWindow.from_bounds(*self.window))
        if self.window.primes.size == 0:
            raise ValueError(
                f"the prime window ({self.window.lo:g}, {self.window.hi:g}] holds no prime; "
                "the scan's prime proxy needs at least one"
            )


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
    proxy = dirichlet_poly_many(t, spec.window).real
    return ScanStream(t=t, values=values, log_weights=log_w, proxy=proxy)


def weighted_scan(spec: ScanSpec):
    """Self-normalized weighted histogram and moment report (orders 0..4) for one scan.

    Near-zero |zeta| samples drive log to -inf; they land in the
    underflow bin with their (vanishing, at k >= 1) weight rather than
    being dropped.
    """
    stream = scan_stream(spec)
    log_w = stream.log_weights
    finite = np.isfinite(stream.values)
    report = weighted_moments(stream.values[finite], log_w[finite], 4)
    corr = float(np.corrcoef(stream.proxy[finite], stream.values[finite])[0, 1])
    report = dataclasses.replace(report, proxy_correlation=corr)

    half_width = HISTOGRAM_HALF_WIDTHS * math.sqrt(0.5 * max(mertens_l(spec.window), 1e-12))
    center = report.weighted_mean
    edges = np.linspace(center - half_width, center + half_width, HISTOGRAM_BINS + 1)
    shift = np.max(log_w)
    weights = np.exp(log_w - shift)
    total = float(weights.sum())
    inside = np.histogram(stream.values, bins=edges, weights=weights)[0]
    under = float(weights[stream.values < edges[0]].sum())
    over = float(weights[stream.values > edges[-1]].sum())
    hist = WeightedHistogram(
        bin_edges=edges,
        weighted_counts=inside,
        total_weight=total,
        raw_count=int(spec.samples),
        underflow_weight=under,
        overflow_weight=over,
    )
    return hist, report
