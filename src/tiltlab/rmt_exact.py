"""Closed-form tilted moments of log|Z| over U(N), each O(1) in N.

The tilt normalizer is M_N(s) = prod_{j<=N} Gamma(j)Gamma(j+s)/Gamma(j+s/2)^2
and every weighted moment comes from derivatives of x -> M_N(2k+x) at 0.
Everything runs on the log-Gamma jet a_r(x) of `special.log_gamma_jet` and
two identities: the polygamma j-sums telescope (`_telescoped`), and log M_N
and the weighted mean are j-sums of midpoint differences of log Gamma whose
expansions in a_{2r} telescope the same way, with a cancellation-free
recurrence for the few small j (`_midpoint_sum`).  The entry points take
plain arguments, and `_validate_nk` is the one check of N and k.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import jet
from .special import log_gamma_jet

__all__ = [
    "ExactMomentReport",
    "log_moment_mn",
    "weighted_mean",
    "weighted_central_moments",
]

MAX_MOMENT_ORDER = 12
# N enters the log-Gamma jet as a float; above 2^53 consecutive sizes are one float
MAX_SIZE = 2**53
# `_midpoint_sum` runs its small-c recurrence over about 7k steps for log M_N(2k)
# (2.5k for the mean), a few float array entries each, so time and memory grow
# linearly in k; k <= 1e4 keeps a call near 2 MiB and 10 ms
MAX_TILT = 10**4


@dataclass(frozen=True)
class ExactMomentReport:
    """Exact weighted-moment summary at one (N, k), to order n_max."""

    log_mn: float
    mu_weighted: float
    central_moments: list[float]
    cumulant_sums: list[float]


def _validate_nk(N, s_or_k, label, top=MAX_TILT):
    if not isinstance(N, (int, np.integer)) or not 1 <= N <= MAX_SIZE:
        raise ValueError(f"N must be an integer in [1, 2**53], got {N}")
    if not 0 <= s_or_k <= top:
        raise ValueError(f"{label} must be in [0, {top}], got {s_or_k}")


def log_moment_mn(N, s):
    """log M_N(s) = sum_j [logGamma(j) + logGamma(j+s) - 2 logGamma(j+s/2)], s = 2k <= 2 MAX_TILT.

    Each j-term is T(j + s/2) with h = s/2, summed by `_midpoint_sum`.
    """
    _validate_nk(N, s, "s = 2k", 2 * MAX_TILT)
    return _midpoint_sum(N, 1.0 + 0.5 * s, 0.5 * s, slope=False)


def _midpoint_sum(N, c1, h, slope):
    """sum_{j<N} T(c1 + j), or with slope its h-derivative D(c1 + j), for c1 > h >= 0.

    T(c) = logGamma(c+h) + logGamma(c-h) - 2 logGamma(c) = sum_r 2 h^{2r} a_{2r}(c)
    and D(c) = psi(c+h) - psi(c-h) = sum_r 4r h^{2r-1} a_{2r}(c).  From the
    anchor, the first c >= max(40, 8h), on the sums of a_{2r} telescope
    (`_telescoped`).  Below it the recurrences T(c) = T(c+1) - log1p(-h^2/c^2)
    and D(c) = D(c+1) + 2h/(c^2 - h^2) run down from the anchor's value,
    adding positive steps.
    """
    r = np.arange(1, 11)  # at c >= 8h the 11th term is below 1e-18 relative
    coef = 4.0 * r * h ** (2 * r - 1) if slope else 2.0 * h ** (2 * r)
    m = max(0, math.ceil(max(40.0, 8.0 * h) - c1))  # c1 + m is the anchor
    ends = np.array([c1 + m, c1 + max(N, m)])
    a = log_gamma_jet(ends, 2 * len(r))
    f = _telescoped(a, ends)[::2]  # rows m = 2r - 1
    anchor, tail = coef @ a[2::2, 0], coef @ (f[:, 1] - f[:, 0])  # T or D there; summed from there
    c = c1 + np.arange(m)
    step = 2.0 * h / (c * c - h * h) if slope else -np.log1p(-(h * h) / (c * c))
    reach = np.minimum(np.arange(1, m + 1), N)  # how many of the N terms take step i
    return float(min(N, m) * anchor + reach @ step + tail)


def _telescoped(a, x):
    """F_m(x) / (m+1)! for m = 1..order-1 (rows) from the jet a at the points x (columns).

    F_m(x) = (x-1) psi^(m)(x) + m psi^(m-1)(x) = m! [(m+1)(x-1) a_{m+1}(x) + m a_m(x)]
    satisfies F_m(x+1) - F_m(x) = psi^(m)(x), so the sum of a_{m+1}(c) over
    c = b, b+1, ..., e-1 is the difference of the rows at e and at b.
    """
    m = np.arange(1, len(a) - 1)[:, None]
    return (x - 1.0) * a[2:] + m / (m + 1) * a[1:-1]


def _fj_sums(N, k, n_max):
    """[sum_j f_j^{(i)}(0) for i = 1..n_max].

    i = 1 is the weighted mean; for i >= 2 the sum is
    i! sum_j [a_i(j+2k) - 2^{1-i} a_i(j+k)], telescoped.
    """
    mean = weighted_mean(N, k)  # validates N and k
    x = np.array([2 * k + 1.0, 2 * k + N + 1.0, k + 1.0, k + N + 1.0])
    f = _telescoped(log_gamma_jet(x, n_max), x)
    i = np.arange(2, n_max + 1)
    higher = np.cumprod(i, dtype=float) * (f[:, 1] - f[:, 0] - 2.0 ** (1 - i) * (f[:, 3] - f[:, 2]))
    return [mean] + higher.tolist()


def weighted_mean(N, k):
    """Exact mean of log|Z| under |Z|^{2k} d_Haar: sum_j [psi(j+2k) - psi(j+k)].

    Each j-term is D(j + 3k/2) with h = k/2, summed by `_midpoint_sum`.
    """
    _validate_nk(N, k, "k")
    return _midpoint_sum(N, 1.0 + 1.5 * k, 0.5 * k, slope=True)


def weighted_central_moments(N, k, n_max) -> ExactMomentReport:
    """Central moments <|Z|^{2k} (log|Z| - mu)^n> / M_{2k} for n <= n_max, with log M_N(2k) and mu.

    n! times the coefficients of the jet of exp(-x mu + sum_j f_j(x)) at
    x = 0: g_1 = 0 by centering and g_i = (sum_j f_j^{(i)}(0))/i! for i >= 2.
    N and k are checked as `weighted_mean` checks them; n_max <= MAX_MOMENT_ORDER
    guards the factorial growth of the moments.
    """
    if not isinstance(n_max, numbers.Integral) or not 0 <= n_max <= MAX_MOMENT_ORDER:
        raise ValueError(f"n_max must be an integer in [0, {MAX_MOMENT_ORDER}], got {n_max!r}")
    fj = _fj_sums(N, k, max(n_max, 1))
    g = ([0.0, 0.0] + [fj[i - 1] / math.factorial(i) for i in range(2, n_max + 1)])[: n_max + 1]
    central = [float(math.factorial(n) * c) for n, c in enumerate(jet.exp(g))]
    return ExactMomentReport(
        log_mn=log_moment_mn(N, 2.0 * k),
        mu_weighted=fj[0],
        central_moments=central,
        cumulant_sums=fj[:n_max],
    )
