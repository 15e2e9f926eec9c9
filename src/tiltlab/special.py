"""Scalar special-function kernels: log-Gamma, digamma, polygamma, Barnes G.

All evaluators use the same strategy: shift the argument upward with the
recurrence until it clears a cutoff, then sum a Stirling-type asymptotic
series with exact Bernoulli numbers.  Everything here is pure and
re-entrant.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "log_gamma",
    "digamma",
    "polygamma",
    "log_barnes_g",
    "gaussian_central_moment",
    "digamma_diff",
]


def _bernoulli_even(count):
    """Exact B_2, B_4, ..., B_{2*count} via the defining recurrence."""
    b = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * b[j]
        b.append(-acc / (m + 1))
    return [float(b[2 * n]) for n in range(1, count + 1)]


_N_BERN = 14
_B2N = _bernoulli_even(_N_BERN)
# Stirling-series coefficients B_{2n}/(2n(2n-1)) and B_{2n}/(2n)
_STIRLING = [_B2N[n - 1] / ((2 * n) * (2 * n - 1)) for n in range(1, _N_BERN + 1)]
_DIGAMMA_C = [_B2N[n - 1] / (2 * n) for n in range(1, _N_BERN + 1)]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


# argument above which the asymptotic series is summed directly
SERIES_CUTOFF = 12.0


def log_gamma(x):
    """log Gamma(x) for x > 0."""
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    shift = 0.0
    while x < SERIES_CUTOFF:
        shift += math.log(x)
        x += 1.0
    return _log_gamma_series(x) - shift


def _log_gamma_series(x):
    tot = (x - 0.5) * math.log(x) - x + _HALF_LOG_2PI
    xi = 1.0 / (x * x)
    p = 1.0 / x
    for c in _STIRLING:
        tot += c * p
        p *= xi
    return tot


def digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    if not x > 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    shift = 0.0
    while x < SERIES_CUTOFF:
        shift += 1.0 / x
        x += 1.0
    return _digamma_series(x) - shift


def _digamma_series(x):
    tot = math.log(x) - 0.5 / x
    xi = 1.0 / (x * x)
    p = xi
    for c in _DIGAMMA_C:
        tot -= c * p
        p *= xi
    return tot


def polygamma(m, x):
    """psi^(m)(x), the m-th derivative of digamma, for m >= 1 and x > 0.

    Orders up to ~30 are supported; the series cutoff grows with the
    order so the Bernoulli tail still converges.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"polygamma order must be an integer >= 1, got {m}")
    if m > 30:
        raise ValueError(f"polygamma order {m} too large (max 30)")
    if not x > 0:
        raise ValueError(f"polygamma requires x > 0, got {x}")
    cutoff = SERIES_CUTOFF + m
    shift = 0.0
    fact_m = math.factorial(m)
    while x < cutoff:
        # psi^(m)(x) = psi^(m)(x+1) + (-1)^{m+1} m!/x^{m+1}
        shift += fact_m / x ** (m + 1)
        x += 1.0
    sign = -1.0 if m % 2 == 0 else 1.0
    return float(polygamma_series_vec(m, x)) + sign * shift


def polygamma_series_vec(m, x):
    """Vectorized psi^(m) for arrays already above the series cutoff.

    Caller must guarantee x >= SERIES_CUTOFF + m elementwise; no shifting
    is performed.
    """
    # psi^(m)(x) = (-1)^{m-1} [ (m-1)!/x^m + m!/(2 x^{m+1})
    #                           + sum_n B_{2n} (2n+m-1)!/(2n)! x^{-2n-m} ]
    x = np.asarray(x, dtype=float)
    inv = 1.0 / x
    invm = inv**m
    tot = math.factorial(m - 1) * invm + 0.5 * math.factorial(m) * invm * inv
    ratio = float(math.factorial(m + 1)) / 2.0  # (2n+m-1)!/(2n)! at n=1
    p = invm * inv * inv
    xi = inv * inv
    for n in range(1, _N_BERN + 1):
        tot = tot + _B2N[n - 1] * ratio * p
        ratio *= (2 * n + m) * (2 * n + m + 1) / ((2 * n + 1) * (2 * n + 2))
        p = p * xi
    return tot if m % 2 == 1 else -tot


def digamma_diff(x, d):
    """psi(x + d) - psi(x) without cancellation, for x > 0, x + d > 0.

    Small nonnegative integer d uses the exact recurrence sum; otherwise
    the difference of the asymptotic series is rearranged so every term
    is a small quantity.
    """
    if not (x > 0 and x + d > 0):
        raise ValueError("digamma_diff requires x > 0 and x + d > 0")
    if d == 0:
        return 0.0
    if float(d).is_integer() and 0 < d <= 64:
        return math.fsum(1.0 / (x + i) for i in range(int(d)))
    if d < 0:
        return -digamma_diff(x + d, -d)
    cutoff = SERIES_CUTOFF + 4.0
    extra = 0.0
    while x < cutoff:
        extra += d / (x * (x + d))
        x += 1.0
    # series difference: log(1+d/x) + d/(2x(x+d)) - sum_n c_n [ (x+d)^{-2n} - x^{-2n} ]
    l1p = math.log1p(d / x)
    tot = l1p + d / (2.0 * x * (x + d))
    xi = 1.0 / (x * x)
    p = xi
    for n, c in enumerate(_DIGAMMA_C, start=1):
        tot -= c * p * math.expm1(-2.0 * n * l1p)
        p *= xi
    return tot + extra


def log_barnes_g(n):
    """log G(n) at integer n >= 1 via G(m+1) = Gamma(m) G(m), G(1) = 1."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"log_barnes_g requires an integer n >= 1, got {n}")
    if n <= 3:
        return 0.0
    return math.fsum(log_gamma(float(m)) for m in range(2, n - 1 + 1))


def gaussian_central_moment(n, variance):
    """Central moment of order n of a normal law: 0 for odd n, (n-1)!! v^{n/2} else."""
    if n < 0 or not isinstance(n, (int, np.integer)):
        raise ValueError(f"moment order must be a nonnegative integer, got {n}")
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    if n % 2 == 1:
        return 0.0
    if n == 0:
        return 1.0
    double_fact = 1
    for i in range(n - 1, 0, -2):
        double_fact *= i
    return double_fact * variance ** (n // 2)
