"""Critical-line zeta and its derivatives: one evaluator over Euler-Maclaurin and Riemann-Siegel.

`zeta_line(t, m)` returns zeta^(r)(1/2 + it) for r = 0..m from one
dispatch with one crossover at every order: Euler-Maclaurin (O(|t|)
cost) for |t| <= EM_AUTO_MAX_T = 1000, Riemann-Siegel (O(sqrt t) cost,
correction terms C_0..C_4) above it up to t = 1e8.  Its two paths,
`zeta_em_many` (valid for any complex s != 1, and used off the line
too) and `zeta_rs_many`, each return every jet row at once.  On an
arithmetic progression of s (a uniform quadrature grid) the
Euler-Maclaurin main sums of all nodes are complex matrix products of
anchor and step tables, one per chunk of terms in a reused 2 MiB buffer
(`zeta_em_progression`), so memory grows with the node count alone.
Each table is the product of a coarse and a fine table of powers, so a
term takes about 4 count^(1/4) complex exps rather than 2 sqrt(count).
Both Euler-Maclaurin evaluators share one tail, which takes M^{-s} from
one exp and M^{1-s}, M^{-s-1} from it.

Derivatives are Taylor jets in eps (`tiltlab.jet`).  Euler-Maclaurin
expands zeta(s + eps) term by term: the main sum gives
sum n^{-s} (-log n)^r / r!, and its tail terms are jets.  Riemann-Siegel
expands every factor of zeta(1/2 + i(t + eps)) = e^{-i theta} Z: the
main-sum phases, the correction terms (to full order) and e^{-i theta}.

The correction terms are polynomials in derivatives of
Phi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p), an entire function.
Its even Taylor coefficients about p = 1/2 are extracted once at import
by a contour FFT on |w| = 1 (Phi(1/2 + w) = -cos(2 pi w^2 - 5 pi/8) /
cos(2 pi w) is even in w and analytic there, so trapezoid = spectral
accuracy); runtime evaluation is then plain Horner, with no removable
singularities to dodge.

The main sum S(N) = sum_{n <= N} n^{-1/2-it} is built per block of
points.  n^{-1/2-it} is completely multiplicative, so only the prime rows
X[p] take a phase.  t log p / 2 pi is reduced mod 1 in float64 turns:
log p / 2 pi is split at import into a head on a 2^-24 grid and a tail,
so floor(t) * head is exact for t <= RS_MAX_T < 2^27 and only a few turns
are left to add.  Extended precision (80-bit long double) remains for
theta(t), reduced on its own, and for those import-time constants.  The
quarter turns of the phase and the amplitude p^{-1/2} come from an
import-time lookup of (-i)^q p^{-1/2}: one exact complex product.  Every
n is s m with s = 2^a 3^b and m coprime to 6, so the block's table holds
only the m, a third of the n, each composite row one product
X[spf(m)] X[m / spf(m)], level by level in the number of prime factors.
S(N) is then the sum over the 3-smooth s <= N of X[s] times the table's
prefix sum up to floor(N / s).  Each jet order takes prefix sums of the
table weighted by one more power of log m and combines them binomially
with powers of log s.  With two or more threads, the next block's prime
rows are built on a worker thread while the caller fills and sums this
block's table; the values do not depend on the thread count.
"""

from __future__ import annotations

import math

import numpy as np

from . import jet
from .special import BERNOULLI_EVEN as _B2N
from .threads import one_ahead

__all__ = [
    "zeta_line",
    "zeta_em_many",
    "zeta_em_progression",
    "zeta_rs_many",
    "siegel_theta",
    "EM_AUTO_MAX_T",
    "RS_MIN_T",
    "RS_MAX_T",
]

TWO_PI = 2.0 * math.pi
_LD = np.longdouble
PI_LD = _LD("3.14159265358979323846264338327950288420")
TWO_PI_LD = _LD(2) * PI_LD
# theta(t) near 1e9 rad and log p / 2 pi to ~1e-19 need a 64-bit mantissa (x87 80-bit)
_LONGDOUBLE_OK = np.finfo(_LD).nmant >= 63

EM_AUTO_MAX_T = 1000.0  # the one crossover: EM at and below, RS above, at every order
RS_MIN_T = 40.0
RS_MAX_T = 1.0e8
MAX_DERIVATIVE = 4
_TABLE_ENTRIES = 1 << 17  # complex entries per EM or RS block table: 2 MiB
_LOOKUP_ENTRIES = 1 << 13  # quarter-turn factors gathered at a time for the prime rows: 128 KiB

_EM_J = 14


def _linear(c, order):
    """Jet of c + eps to the given order."""
    return [c, 1.0] + [0.0] * (order - 1) if order else [c]


# ---------------------------------------------------------------------------
# Euler-Maclaurin
# ---------------------------------------------------------------------------


def _em_terms(abs_t):
    return max(16, int(0.6 * abs_t) + 8)


def zeta_em_many(s_values, terms=None, order=0):
    """zeta^{(r)}(s) for r = 0..order by Euler-Maclaurin, as rows over an array of complex s.

    Row r's main sum is sum_{n<M} n^{-s} (-log n)^r: one table of n^{-s}
    per block of points, weighted by one more power of -log n per row,
    with one term count M for the whole array.  `_em_tail` completes
    every row.
    """
    s = np.asarray(s_values, dtype=np.complex128)
    flat = s.ravel()
    if np.any(flat == 1.0):
        raise ValueError("zeta has a pole at s = 1")
    if terms is None:
        terms = _em_terms(float(np.max(np.abs(flat.imag))) if flat.size else 0.0)
    neg_log_n = -np.log(np.arange(1, terms, dtype=float))
    out = np.empty((order + 1, flat.size), dtype=np.complex128)
    block = max(1, _TABLE_ENTRIES // neg_log_n.size)
    buffer = np.empty(min(block, flat.size) * neg_log_n.size, dtype=np.complex128)
    for lo in range(0, flat.size, block):
        points = flat[lo : lo + block]
        table = buffer[: points.size * neg_log_n.size].reshape(points.size, neg_log_n.size)
        np.exp(np.multiply(points[:, None], neg_log_n, out=table), out=table)
        out[0, lo : lo + block] = table.sum(axis=1)
        for r in range(1, order + 1):
            table *= neg_log_n
            out[r, lo : lo + block] = table.sum(axis=1)
    out += _em_tail(flat, terms, order)
    return out.reshape((order + 1,) + s.shape)


def zeta_em_progression(s0, ds, count):
    """zeta(s0 + j ds) for j = 0..count-1 by Euler-Maclaurin, in memory that grows with count alone.

    With B = isqrt(count) and j = a B + b, each main-sum term factors as
    n^{-s_j} = n^{-(s0 + a B ds)} n^{-b ds}, so the main sums of all
    nodes are anchors @ steps.T.  Each of those tables is in turn a
    coarse x fine product (`_coarse_fine`): with A = isqrt(anchors) and
    a = a1 A + a2, n^{-(s0 + a B ds)} = n^{-(s0 + a1 A B ds)} n^{-a2 B ds},
    and b splits the same way over isqrt(B).  So the M terms take about
    4 count^(1/4) M complex exps (48 per term at 20,001 nodes) and one
    complex product per table entry, not one exp per entry, which would
    be 2 sqrt(count) M.  The M terms go in chunks: each chunk's
    anchor and step tables fill one reused buffer of _TABLE_ENTRIES, and
    their product is added to the sums.  The tail is added over blocks of
    nodes in the same budget.  The term count M is the one zeta_em_many
    picks for the same nodes.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    s0, ds = complex(s0), complex(ds)
    ends = s0 + np.array([0, count - 1]) * ds
    terms = _em_terms(max(abs(ends.imag)))
    log_n = np.log(np.arange(1, terms, dtype=float))
    block = math.isqrt(count)
    anchors = -(-count // block)
    exponents = [*_coarse_fine(s0, block, anchors, ds), *_coarse_fine(0.0, 1, block, ds)]
    neg_s, cuts = np.concatenate(exponents), np.cumsum([x.size for x in exponents])[:-1]
    # the anchor and step tables' rows, each padded to whole coarse rows
    rows = exponents[0].size * exponents[1].size, exponents[2].size * exponents[3].size
    width = max(1, _TABLE_ENTRIES // sum(rows))
    powers_buffer = np.empty(neg_s.size * min(width, log_n.size), dtype=np.complex128)
    buffer = np.empty(sum(rows) * min(width, log_n.size), dtype=np.complex128)
    sums = np.zeros((anchors, block), dtype=np.complex128)
    product = np.empty_like(sums)
    for lo in range(0, log_n.size, width):
        chunk = log_n[lo : lo + width]
        powers = powers_buffer[: neg_s.size * chunk.size].reshape(neg_s.size, chunk.size)
        np.exp(np.multiply(neg_s[:, None], chunk, out=powers), out=powers)
        coarse_a, fine_a, coarse_b, fine_b = np.split(powers, cuts)
        table = buffer[: sum(rows) * chunk.size].reshape(sum(rows), chunk.size)
        anchor_rows, step_rows = table[: rows[0]], table[rows[0] :]
        np.multiply(coarse_a[:, None], fine_a, out=anchor_rows.reshape(coarse_a.shape[0], fine_a.shape[0], -1))
        np.multiply(coarse_b[:, None], fine_b, out=step_rows.reshape(coarse_b.shape[0], fine_b.shape[0], -1))
        sums += np.matmul(anchor_rows[:anchors], step_rows[:block].T, out=product)
    del powers_buffer, buffer, product
    out = sums.ravel()[:count]
    nodes = _TABLE_ENTRIES // 8  # _em_tail holds about eight complex arrays of its nodes
    for lo in range(0, count, nodes):
        out[lo : lo + nodes] += _em_tail(s0 + np.arange(lo, min(count, lo + nodes)) * ds, terms, 0)[0]
    return out


def _coarse_fine(first, unit, rows, ds):
    """Exponents -(first + i unit ds) for i < rows, as a coarse and a fine set with F = isqrt(rows).

    The coarse set takes i = i1 F and the fine set i = i2 < F, so the
    power n^{-(first + i unit ds)} is the product of the i1-th coarse and
    the i2-th fine power for i = i1 F + i2; the last coarse row's products
    may run past rows.
    """
    fine = math.isqrt(rows)
    return -(first + np.arange(0, rows, fine) * unit * ds), -np.arange(fine) * unit * ds


def _em_tail(s, terms, order):
    """Derivatives r = 0..order of the Euler-Maclaurin tail at the array s, with M = terms.

    The tail M^{-s} [M/(s-1) + 1/2 + sum_j B_2j/(2j)! (s)_{2j-1} M^{1-2j}],
    with (s)_r the rising factorial, is a jet in eps at s + eps; its
    coefficients times r! are returned as rows.
    """
    log_m = math.log(terms)
    m_s = np.exp(-s * log_m)  # M^{-s}; M^{1-s} and M^{-s-1} follow by a real multiply
    pole = m_s * float(terms) / (s - 1.0)
    bracket = [pole * (-1.0 / (s - 1.0)) ** r for r in range(order + 1)]
    bracket[0] = bracket[0] + 0.5 * m_s
    rising = _linear(s, order)
    power = m_s * (1.0 / terms)
    m2 = float(terms) ** -2.0
    for j in range(1, _EM_J + 1):
        c = _B2N[j - 1] / math.factorial(2 * j) * power
        bracket = [b + c * x for b, x in zip(bracket, rising)]
        rising = jet.mul(jet.mul(rising, _linear(s + 2 * j - 1, order)), _linear(s + 2 * j, order))
        power = power * m2
    m_power = [(-log_m) ** r / math.factorial(r) for r in range(order + 1)]  # M^{-eps}
    return np.array([math.factorial(r) * x for r, x in enumerate(jet.mul(m_power, bracket))])


# ---------------------------------------------------------------------------
# Phi Taylor table and Riemann-Siegel correction terms
# ---------------------------------------------------------------------------


def _phi_even_taylor(n_nodes=512, keep=44):
    """Even Taylor coefficients of Phi(1/2 + w) about w = 0, by contour FFT."""
    phi_angles = np.arange(n_nodes) * (TWO_PI / n_nodes)
    w = np.exp(1j * phi_angles)
    num = -np.cos(TWO_PI * w * w - 5.0 * math.pi / 8.0)
    den = np.cos(TWO_PI * w)
    samples = num / den
    coeffs = np.fft.fft(samples) / n_nodes
    even = coeffs.real[: 2 * keep : 2]
    return even  # even[i] multiplies w^{2i}


_PHI_EVEN = _phi_even_taylor()

_PI2 = math.pi**2
# C_0..C_4 as combinations of Phi derivatives (Haselgrove/Gabcke coefficients);
# `_rs_jet` sums every entry, so a further C_k is one more entry
_C_RELATIONS = (
    ((0, 1.0),),
    ((3, -1.0 / (96.0 * _PI2)),),
    ((2, 1.0 / (64.0 * _PI2)), (6, 1.0 / (18432.0 * _PI2**2))),
    (
        (1, -1.0 / (64.0 * _PI2)),
        (5, -1.0 / (3840.0 * _PI2**2)),
        (9, -1.0 / (5308416.0 * _PI2**3)),
    ),
    (
        (0, 1.0 / (128.0 * _PI2)),
        (4, 19.0 / (24576.0 * _PI2**2)),
        (8, 11.0 / (5898240.0 * _PI2**3)),
        (12, 1.0 / (2038431744.0 * _PI2**4)),
    ),
)


def _phi_derivative(p, order):
    """d^order/dp^order Phi at p (scalar or array), by Horner on the even table."""
    w = np.asarray(p, dtype=float) - 0.5
    top = 2 * (len(_PHI_EVEN) - 1)
    acc = np.zeros_like(w)
    for i in range(len(_PHI_EVEN) - 1, -1, -1):
        e = 2 * i
        if e < order:
            break
        fall = 1.0
        for r in range(order):
            fall *= e - r
        acc = acc * (w * w) + _PHI_EVEN[i] * fall
    # account for the leftover power w^{(e_min - order)} parity
    e_min = order if order % 2 == 0 else order + 1
    return acc * w ** (e_min - order)


# ---------------------------------------------------------------------------
# theta(t) and the Riemann-Siegel main formula
# ---------------------------------------------------------------------------


def siegel_theta(t):
    """Riemann-Siegel theta, asymptotic form (t >= ~20), in extended precision."""
    t_ld = np.asarray(t, dtype=_LD)
    return (
        t_ld / 2 * np.log(t_ld / TWO_PI_LD)
        - t_ld / 2
        - PI_LD / 8
        + 1 / (48 * t_ld)
        + 7 / (5760 * t_ld**3)
        + 31 / (80640 * t_ld**5)
    )


def _log1p_jet(t, order):
    """Jet of log(1 + eps/t); every power of t + eps is t^q exp(q log1p)."""
    return [0.0] + [(-1.0) ** (r + 1) / (r * t**r) for r in range(1, order + 1)]


def _theta_jet(t, log1p):
    """Jet of theta(t + eps) from the asymptotic form, in float64.

    Phases take their order-0 term from siegel_theta instead.
    """
    order = len(log1p) - 1
    out = jet.mul([x / 2 for x in _linear(t, order)], [np.log(t / TWO_PI) - 1.0] + log1p[1:])
    out[0] = out[0] - math.pi / 8
    for q, c in ((1, 1 / 48), (3, 7 / 5760), (5, 31 / 80640)):
        power = jet.exp([-q * x for x in log1p])
        out = [x + c * t**-q * y for x, y in zip(out, power)]
    return out


def _factor_levels(n_max):
    """Primes up to n_max, and the composites up to n_max grouped by Omega(n).

    Omega(n) counts prime factors with multiplicity.  levels[i] holds
    (n - 1, spf(n) - 1, n / spf(n) - 1) as row indices for the composites
    with Omega(n) = i + 2, n ascending; spf is the smallest prime factor,
    so each cofactor lies on an earlier level or is prime.
    """
    n = np.arange(n_max + 1)
    spf = n.copy()
    for p in range(2, math.isqrt(n_max) + 1):
        if spf[p] == p:
            multiples = spf[p * p :: p]
            multiples[multiples == n[p * p :: p]] = p
    cofactor = n // np.maximum(spf, 1)
    omega = np.zeros(n_max + 1, dtype=np.int64)
    for _ in range(n_max.bit_length()):
        omega[2:] = omega[cofactor[2:]] + 1
    primes = n[omega == 1]
    levels = []
    for level in range(2, int(omega.max(initial=0)) + 1):
        rows = n[omega == level]
        levels.append((rows - 1, spf[rows] - 1, cofactor[rows] - 1))
    return primes, levels


_RS_MAX_N = int(math.sqrt(RS_MAX_T / TWO_PI))  # main-sum length at the ceiling
_PRIMES, _LEVELS = _factor_levels(_RS_MAX_N)
# log p / 2 pi, the turns of p^{-it} per unit t, as head + tail with head on a 2^-24
# grid: head * 2^24 * floor(t) < 2^53 for t <= RS_MAX_T, so floor(t) * head is exact
_TURNS_LD = np.log(_PRIMES.astype(_LD)) / TWO_PI_LD
_TURNS = _TURNS_LD.astype(float)
_TURNS_HEAD = (np.round(_TURNS_LD * 2**24) / 2**24).astype(float)
_TURNS_TAIL = (_TURNS_LD - _TURNS_HEAD).astype(float)
# entry 4 i + q is (-i)^q p^{-1/2} for the i-th prime p: a product by it is exact in the quarter turn
_QUARTERS = (np.array([1.0, -1j, -1.0, 1j]) * (1.0 / np.sqrt(_PRIMES.astype(float)))[:, None]).ravel()
# every n <= _RS_MAX_N is s m for one 3-smooth s = 2^a 3^b and one m coprime to 6; the
# wheel table holds X[m] in row m // 3, and _WHEEL_COUNT[M] counts the m <= M
_N = np.arange(_RS_MAX_N + 1)
_WHEEL = _N[(_N % 2 == 1) & (_N % 3 != 0)]
_WHEEL_COUNT = np.searchsorted(_WHEEL, _N, side="right")
_LOG_WHEEL = np.log(_WHEEL.astype(float))[:, None]
# the composites m coprime to 6 (spf(m) >= 5) of each level, as wheel rows
_WHEEL_LEVELS = [
    tuple((row[spf >= 4] + 1) // 3 for row in (n_row, spf, cof)) for n_row, spf, cof in _LEVELS if spf.max() >= 4
]
# the 3-smooth s = 2^a 3^b <= _RS_MAX_N, ordered by b and then a
_SMOOTH_THREES, _SMOOTH_TWOS = np.array(
    [(b, a) for b in range(_RS_MAX_N.bit_length()) for a in range(_RS_MAX_N.bit_length()) if 2**a * 3**b <= _RS_MAX_N]
).T
_SMOOTH = 2**_SMOOTH_TWOS * 3**_SMOOTH_THREES
# rows per point of a block of max N: the N + 1 of a full table of n, or what its wheel
# table, the table's prefix sums (from a zero row), X[s] for s <= N and the s-terms
# gathered from the prefix sums take in the shared buffer, if that is more (N <= 133)
_BLOCK_ROWS = np.maximum(_N + 1, 2 * _WHEEL_COUNT + 1 + 2 * np.cumsum(np.bincount(_SMOOTH, minlength=_N.size)))


def _prime_turns(t, n_primes):
    """t log p / 2 pi mod 1 for the first n_primes primes (rows) at each t (columns), in float64.

    With t = floor(t) + frac(t) and log p / 2 pi = head + tail, the product
    floor(t) * head is exact, so its fractional part is too; what is left,
    floor(t) * tail + frac(t) log p / 2 pi, is a few turns at most.  The
    result is congruent to t log p / 2 pi mod 1 and lies in (-3, 6).
    """
    t_int = np.floor(t)
    turns = np.multiply(_TURNS_HEAD[:n_primes, None], t_int)
    rest = np.floor(turns)
    turns -= rest
    turns += np.multiply(_TURNS_TAIL[:n_primes, None], t_int, out=rest)
    turns += np.multiply(_TURNS[:n_primes, None], t - t_int, out=rest)
    return turns


def _prime_rows(t, n_primes):
    """X[p] = p^{-1/2 - it} for the first n_primes primes (rows) at each t (columns).

    The turns u = t log p / 2 pi are split as q/4 + r with q = rint(4u), so
    e^{-2 pi i u} = (-i)^q e^{-2 pi i r}: cos and sin only see |2 pi r| <= pi/4,
    and one product by the looked-up (-i)^q p^{-1/2} applies the quarter
    turns and the amplitude exactly.  The lookup is gathered
    _LOOKUP_ENTRIES at a time into one reused buffer.
    """
    turns = _prime_turns(t, n_primes)
    turns *= 4.0
    quarter = np.rint(turns).astype(np.intp)  # in (-12, 24)
    turns -= quarter
    turns *= -math.pi / 2
    rows = np.empty(turns.shape, dtype=np.complex128)
    np.cos(turns, out=rows.real)
    np.sin(turns, out=rows.imag)
    del turns
    quarter &= 3
    quarter += 4 * np.arange(n_primes)[:, None]
    flat, index = rows.reshape(-1), quarter.reshape(-1)
    lookup = np.empty(min(flat.size, _LOOKUP_ENTRIES), dtype=np.complex128)
    for lo in range(0, flat.size, lookup.size):
        gathered = np.take(_QUARTERS, index[lo : lo + lookup.size], out=lookup[: flat.size - lo], mode="clip")
        flat[lo : lo + lookup.size] *= gathered
    return rows


def _wheel_table(prime_rows, table):
    """Fill table[m // 3, j] = m^{-1/2 - i t_j} for the m coprime to 6 with m // 3 < len(table).

    prime_rows holds X at the primes (`_prime_rows`); those from 5 up are
    scattered in, and each composite row is one product X[spf(m)] X[m / spf(m)],
    level by level in Omega(m).
    """
    table[0] = 1.0
    table[_PRIMES[2 : len(prime_rows)] // 3] = prime_rows[2:]
    for m_row, spf_row, cof_row in _WHEEL_LEVELS:
        cut = int(np.searchsorted(m_row, len(table)))
        if not cut:
            break
        product = table[spf_row[:cut]]
        product *= table[cof_row[:cut]]
        table[m_row[:cut]] = product


def _powers(row, count):
    """Rows x^0 .. x^{count-1} of the row x, each one product by x; x may be absent when count is 1."""
    chain = np.empty((count, row.shape[1]), dtype=np.complex128)
    chain[0] = 1.0
    chain[1:] = row
    return np.multiply.accumulate(chain, axis=0, out=chain)


def _smooth_rows(prime_rows, keep, out):
    """Fill out with X[s] = X[2]^a X[3]^b for the 3-smooth s = _SMOOTH[keep].

    The s with the same power of 3 are adjacent, so each power of 3 takes
    one product with a run of powers of 2.
    """
    per_three = np.bincount(_SMOOTH_THREES[keep]).tolist()
    twos = _powers(prime_rows[:1], per_three[0])
    threes = _powers(prime_rows[1:2], len(per_three))
    start = 0
    for three, count in zip(threes, per_three):
        np.multiply(twos[:count], three, out=out[start : start + count])
        start += count


def _rs_blocks(big_n):
    """(start, stop) of each block of points: its _BLOCK_ROWS at max N times its points fit _TABLE_ENTRIES."""
    start = 0
    while start < big_n.size:
        # N[guess - 1] bounds N on any block that ends by `guess`; size the block by it
        guess = min(big_n.size, start + _TABLE_ENTRIES // int(_BLOCK_ROWS[big_n[start]]))
        stop = min(big_n.size, start + _TABLE_ENTRIES // int(_BLOCK_ROWS[big_n[guess - 1]]))
        yield start, stop
        start = stop


def _add_block_sums(prime_rows, n, buffer, sums):
    """Add one block's main sums S_r(N) (`_rs_main_sums`) into the rows of `sums`, given its prime rows."""
    wheel = int(_WHEEL_COUNT[n[-1]])
    keep = _SMOOTH <= n[-1]
    s = _SMOOTH[keep]
    ends = np.cumsum([wheel, wheel + 1, s.size, s.size]) * n.size
    table, prefix, smooth, part = (x.reshape(-1, n.size) for x in np.split(buffer[: ends[-1]], ends[:-1]))
    _wheel_table(prime_rows, table)
    _smooth_rows(prime_rows, keep, smooth)
    prefix[0] = 0.0
    log_s = np.log(s.astype(float))[:, None]
    # C_q(floor(N / s)) is prefix row _WHEEL_COUNT[floor(N / s)], row 0 where s > N
    cut = _WHEEL_COUNT[n // s[:, None]]
    cut *= n.size
    cut += np.arange(n.size)
    for q in range(len(sums)):
        if q:
            table *= _LOG_WHEEL[:wheel]
        np.cumsum(table, axis=0, out=prefix[1:])
        np.take(prefix, cut, out=part, mode="clip")
        part *= smooth
        for r in range(q, len(sums)):
            if r > q:
                part *= log_s
            sums[r] += math.comb(r, q) * part.sum(axis=0)


def _rs_main_sums(t, big_n, order):
    """S_r[j] = sum_{n <= N_j} n^{-1/2 - i t_j} (log n)^r for r <= order, t ascending.

    n^{-1/2-it} is completely multiplicative, and n = s m factors uniquely
    into a 3-smooth s = 2^a 3^b and an m coprime to 6.  With
    C_q(M) = sum_{m <= M, (m, 6) = 1} m^{-1/2-it} (log m)^q,

        S_r(N) = sum_{s <= N} s^{-1/2-it} sum_{q <= r} C(r, q) (log s)^{r-q} C_q(floor(N / s)).

    A block of points (`_rs_blocks`) takes two stages of similar cost: its
    prime rows (phases, cos and sin: `_prime_rows`), then one wheel table of
    the m (`_wheel_table`, a third of the n), the rows X[s] (`_smooth_rows`)
    and, per order q, the table's prefix sums over m, from which a point
    reads C_q at its own floor(N / s) and adds its terms to S_q..S_order.
    The tables, prefix sums and s-terms share one buffer of _TABLE_ENTRIES.
    A point's sums S_r do not depend on `order`.

    The stages run through `threads.one_ahead`: with two or more threads
    and two or more blocks, one worker thread builds block b + 1's prime
    rows while the caller finishes block b.  Blocks and their arithmetic
    are those of the serial order, so the sums are bit-identical for any
    thread count, and one extra prime-row array is alive at a time.
    """
    sums = np.zeros((order + 1, t.size), dtype=np.complex128)
    buffer = np.empty(_TABLE_ENTRIES, dtype=np.complex128)
    blocks = list(_rs_blocks(big_n))

    def prime_rows(block):
        start, stop = block
        return _prime_rows(t[start:stop], int(np.searchsorted(_PRIMES, big_n[stop - 1], side="right")))

    for (start, stop), rows in zip(blocks, one_ahead(prime_rows, blocks)):
        _add_block_sums(rows, big_n[start:stop], buffer, sums[:, start:stop])
        del rows  # before the next block's prime rows are built
    return sums


def _rs_jet(t_arr, order):
    """Jet in eps of zeta(1/2 + i(t + eps)) = e^{-i theta} Z by Riemann-Siegel.

    Z(t) = 2 Re(e^{i theta} sum_{n<=N} n^{-1/2 - it})
           + (-1)^{N-1} a^{-1/2} sum_k C_k(p) a^{-k},
    with a = sqrt(t/2pi), N = floor(a) held at its value at t, p = a - N.
    At t + eps the main sum is 2 Re(e^{i theta} E sum_n n^{-1/2-it} e^{-i eps log n}),
    with E the jet of e^{i(theta(t + eps) - theta(t))}, so order r takes
    the sums S_j = sum_n n^{-1/2-it} (log n)^j for j <= r.  The remainder
    sums every correction term in _C_RELATIONS (C_0..C_4).
    """
    if not _LONGDOUBLE_OK:
        raise ValueError(
            "Riemann-Siegel path needs an 80-bit long double "
            "(np.finfo(np.longdouble).nmant >= 63) for theta(t) and its prime constants"
        )
    t_arr = np.asarray(t_arr, dtype=float)
    if not np.all((t_arr >= RS_MIN_T) & (t_arr <= RS_MAX_T)):
        raise ValueError(f"Riemann-Siegel path needs {RS_MIN_T:g} <= t <= {RS_MAX_T:.0e}")
    a = np.sqrt(t_arr / TWO_PI)
    big_n = a.astype(np.int64)
    p = a - big_n
    theta0 = np.remainder(siegel_theta(t_arr), TWO_PI_LD).astype(float)
    log1p = _log1p_jet(t_arr, order)
    theta = _theta_jet(t_arr, log1p)
    flat_t, flat_n = t_arr.ravel(), big_n.ravel()
    by_t = np.argsort(flat_t, kind="stable")
    sums = np.empty((order + 1, flat_t.size), dtype=np.complex128)
    sums[:, by_t] = _rs_main_sums(flat_t[by_t], flat_n[by_t], order)
    sums = sums.reshape((order + 1,) + t_arr.shape)
    rot = np.exp(1j * theta0)
    shifted = jet.exp([1j * x for x in theta])
    weighted = [(-1j) ** j / math.factorial(j) * sums[j] for j in range(order + 1)]
    z = [2.0 * (rot * x).real for x in jet.mul(shifted, weighted)]
    # remainder: a, p and each C_k(p) (its Phi-derivative series composed with p) are jets
    p_jet = [p] + [a * x for x in jet.exp([0.5 * x for x in log1p])[1:]]
    inv_a = [x / a for x in jet.exp([-0.5 * x for x in log1p])]
    needed = {j + r for rel in _C_RELATIONS for j, _ in rel for r in range(order + 1)}
    phi = {q: _phi_derivative(p, q) for q in needed}
    acc = [0.0] * (order + 1)
    for rel in reversed(_C_RELATIONS):
        series = [sum(coef * phi[j + r] for j, coef in rel) / math.factorial(r) for r in range(order + 1)]
        acc = [x + y for x, y in zip(jet.mul(acc, inv_a), jet.compose(series, p_jet))]
    omega = [x * a**-0.5 for x in jet.exp([-0.25 * x for x in log1p])]
    sign = np.where(big_n % 2 == 1, 1.0, -1.0)
    z = [zr + sign * rr for zr, rr in zip(z, jet.mul(omega, acc))]
    return [rot.conj() * w for w in jet.mul(jet.exp([-1j * x for x in theta]), z)]


def zeta_rs_many(t_arr, order=0):
    """Rows r = 0..order of the Riemann-Siegel jet: the eps^r coefficients of zeta(1/2 + i(t + eps))."""
    return np.array(_rs_jet(t_arr, order))


_RS_SCALE = np.array([(1j) ** -r * math.factorial(r) for r in range(MAX_DERIVATIVE + 1)])


def zeta_line(t, m=0):
    """zeta^{(r)}(1/2 + it) for r = 0..m (m <= 4), as rows of an array shaped (m + 1,) + shape(t).

    One crossover at every order: Euler-Maclaurin for |t| <= EM_AUTO_MAX_T,
    the Riemann-Siegel jet above it up to RS_MAX_T.  On the line
    d/dt = i d/ds, so RS row r is scaled by i^{-r} r!.  Negative t is
    evaluated at |t| and conjugated, zeta(conj s) = conj zeta(s).
    """
    if not (isinstance(m, (int, np.integer)) and 0 <= m <= MAX_DERIVATIVE):
        raise ValueError(f"derivative order must be an integer in [0, {MAX_DERIVATIVE}], got {m!r}")
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    height = np.abs(t.ravel())
    em = height <= EM_AUTO_MAX_T
    out = np.empty((m + 1, height.size), dtype=np.complex128)
    if np.any(em):
        out[:, em] = zeta_em_many(0.5 + 1j * height[em], order=m)
    if not np.all(em):
        out[:, ~em] = _RS_SCALE[: m + 1, None] * zeta_rs_many(height[~em], m)
    np.conjugate(out, out=out, where=t.ravel() < 0)
    return out.reshape((m + 1,) + t.shape)
