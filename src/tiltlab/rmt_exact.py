"""Closed-form tilted moments of log|Z| over U(N).

The tilt normalizer is M_N(s) = prod_{j<=N} Gamma(j)Gamma(j+s)/Gamma(j+s/2)^2
and every weighted moment comes from derivatives of x -> M_N(2k+x) at 0.
All the j-sums that appear (digamma/polygamma sums) telescope against the
derivative of log of the Barnes G recurrence, so each quantity here costs
O(1) special-function calls; only log_moment_mn itself sums over j, in a
cancellation-free arrangement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jet
from .special import (
    digamma,
    digamma_diff,
    log_barnes_g,
    log_gamma,
    polygamma,
    polygamma_series_vec,
)

__all__ = [
    "TiltSpec",
    "ExactMomentReport",
    "log_moment_mn",
    "asymptotic_mn",
    "cumulants",
    "weighted_mean",
    "fj_derivative_sum",
    "weighted_central_moments",
]

MAX_MOMENT_ORDER = 12


@dataclass(frozen=True)
class TiltSpec:
    """Parameters of one exact tilted-moment computation."""

    N: int
    k: float
    n_max: int

    def __post_init__(self):
        for name in ("N", "k", "n_max"):
            value = getattr(self, name)
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.N < 1:
            raise ValueError(f"matrix size N must be >= 1, got {self.N}")
        if self.k < 0:
            raise ValueError(f"tilt exponent k must be >= 0, got {self.k}")
        if not 0 <= self.n_max <= MAX_MOMENT_ORDER:
            raise ValueError(
                f"n_max must be in [0, {MAX_MOMENT_ORDER}] (factorial growth guard), got {self.n_max}"
            )


@dataclass(frozen=True)
class ExactMomentReport:
    """Exact weighted-moment summary for one TiltSpec."""

    spec: TiltSpec
    log_mn: float
    mu_weighted: float
    central_moments: list[float] = field(default_factory=list)
    cumulant_sums: list[float] = field(default_factory=list)


def _validate_nk(N, s_or_k, label):
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"N must be an integer >= 1, got {N}")
    if s_or_k < 0:
        raise ValueError(f"{label} must be nonnegative, got {s_or_k}")


def log_moment_mn(N, s):
    """log M_N(s) = sum_j [logGamma(j) + logGamma(j+s) - 2 logGamma(j+s/2)].

    For even integer s the Gamma ratios telescope into log1p sums; for
    general s >= 0 each j-term is evaluated by the symmetric expansion
    log Gamma(c+h) + log Gamma(c-h) - 2 log Gamma(c) =
        sum_r 2 h^{2r} psi^{(2r-1)}(c) / (2r)!   with c = j + s/2,
    which keeps every term small instead of cancelling 10^3-sized logs.
    """
    _validate_nk(N, s, "s")
    if s == 0:
        return 0.0
    if s > 64:
        raise ValueError(f"tilt s={s} out of supported range (s <= 64)")
    h = 0.5 * s
    if float(s).is_integer() and int(s) % 2 == 0:
        k = int(s) // 2
        j = np.arange(1, N + 1, dtype=float)
        tot = 0.0
        for i in range(k):
            tot += math.fsum(np.log1p(k / (j + i)))
        return tot
    cmin = max(40.0, 8.0 * h)
    j_all = np.arange(1, N + 1, dtype=float)
    c_all = j_all + h
    big = c_all >= cmin
    total = 0.0
    if np.any(big):
        total += math.fsum(_midpoint_terms(c_all[big], h))
    for c in c_all[~big]:
        total += log_gamma(c + h) + log_gamma(c - h) - 2.0 * log_gamma(c)
    return total


def _midpoint_terms(c, h):
    terms = np.zeros_like(c)
    h2 = h * h
    coef = 1.0
    for r in range(1, 11):
        coef *= h2 / ((2 * r) * (2 * r - 1))
        terms = terms + (2.0 * coef) * polygamma_series_vec(2 * r - 1, c)
    return terms


def asymptotic_mn(N, k):
    """Leading form k^2 log N + 2 log G(1+k) - log G(1+2k), integer k only."""
    _validate_nk(N, k, "k")
    if not float(k).is_integer():
        raise ValueError(f"asymptotic_mn unsupported for non-integer k={k}; use log_moment_mn")
    k = int(k)
    return k * k * math.log(N) + 2.0 * log_barnes_g(1 + k) - log_barnes_g(1 + 2 * k)


def _psi_sum(m, b, N):
    """sum_{j=1}^{N} psi^(m)(j + b), via the telescoped closed form."""
    if m == 0:
        return (b + N) * digamma(b + N + 1) - (b * digamma(b + 1) if b else 0.0) - N
    pg_hi = polygamma(m, b + N + 1)
    pg1_hi = digamma(b + N + 1) if m == 1 else polygamma(m - 1, b + N + 1)
    pg_lo = polygamma(m, b + 1)
    pg1_lo = digamma(b + 1) if m == 1 else polygamma(m - 1, b + 1)
    return (b + N) * pg_hi + m * pg1_hi - b * pg_lo - m * pg1_lo


def cumulants(N, j_max):
    """Cumulants Q_m of log|Z| under plain Haar, m = 1..j_max.

    Q_m = (1 - 2^{1-m}) sum_{i<=N} psi^{(m-1)}(i); Q_1 vanishes identically.
    """
    if not 1 <= j_max <= MAX_MOMENT_ORDER:
        raise ValueError(f"j_max must be in [1, {MAX_MOMENT_ORDER}], got {j_max}")
    _validate_nk(N, 0, "k")
    out = [0.0]
    for m in range(2, j_max + 1):
        out.append((1.0 - 2.0 ** (1 - m)) * _psi_sum(m - 1, 0, N))
    return out


def weighted_mean(N, k):
    """Exact mean of log|Z| under |Z|^{2k} d_Haar: sum_j [psi(j+2k) - psi(j+k)].

    Rearranged as (k+N) [psi(2k+N+1) - psi(k+N+1)] + k [psi(2k+N+1)
    - 2 psi(2k+1) + psi(k+1)] so nothing of size N log N is cancelled.
    """
    _validate_nk(N, k, "k")
    if k == 0:
        return 0.0
    head = (k + N) * digamma_diff(k + N + 1, k)
    tail = k * (digamma(2 * k + N + 1) - 2.0 * digamma(2 * k + 1) + digamma(k + 1))
    return head + tail


def fj_derivative_sum(N, k, i):
    """sum_j f_j^{(i)}(0) = sum_j [psi^{(i-1)}(j+2k) - 2^{1-i} psi^{(i-1)}(j+k)]."""
    _validate_nk(N, k, "k")
    if not isinstance(i, (int, np.integer)) or i < 1:
        raise ValueError(f"derivative order i must be an integer >= 1, got {i}")
    if i == 1:
        return weighted_mean(N, k)
    return _psi_sum(i - 1, 2.0 * k, N) - 2.0 ** (1 - i) * _psi_sum(i - 1, 1.0 * k, N)


def weighted_central_moments(spec: TiltSpec) -> ExactMomentReport:
    """Central moments <|Z|^{2k} (log|Z| - mu)^n> / M_{2k} for n <= n_max.

    n! times the coefficients of the jet of exp(-x mu + sum_j f_j(x)) at
    x = 0: g_1 = 0 by centering and g_i = (sum_j f_j^{(i)}(0))/i! for i >= 2.
    """
    N, k, n_max = spec.N, spec.k, spec.n_max
    mu = weighted_mean(N, k)
    fj = [fj_derivative_sum(N, k, i) for i in range(1, n_max + 1)]
    g = [0.0] + [0.0 if i == 1 else fj[i - 1] / math.factorial(i) for i in range(1, n_max + 1)]
    central = [float(math.factorial(n) * c) for n, c in enumerate(jet.exp(g))]
    return ExactMomentReport(
        spec=spec,
        log_mn=log_moment_mn(N, 2.0 * k),
        mu_weighted=mu,
        central_moments=central,
        cumulant_sums=fj,
    )
