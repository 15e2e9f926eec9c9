"""Monte Carlo moments of log|Z| under the tilted measure |Z|^{2k} d_Haar.

With sampler="split" samples come from the tilted law itself, via the
splitting stream ``cue.log_char_poly_stream`` at tilt k; every
log-weight is then zero and k must be a nonnegative integer.  The
importance-sampled routes draw from plain Haar ("cmv": the same stream at
tilt 0; "qr": dense QR) and carry the tilt in self-normalized
log-weights 2k log|Z|, for any real k >= 0; they degenerate at high tilt
(effective sample size ~10^2 of 2e5 at N=200, k=1).

`weighted_moments` takes every weighted moment from one table of w y^p
(w = exp(log_weights - max), y = values - mean) in one pass to the
report: for each order p one loop gives the central moment m_p from the
row sums, its delta-method (influence-function) error from the rows,
and from p = 3 the standardized moment and its error.  The effective
sample size (sum w)^2 / sum w^2 is read off row 0, in linear space.
Every reduction first sorts the (value, log-weight) pairs, so every
reported field is invariant under permutations of the input stream.
`MomentReport` holds just those fields, and `mc-tilt` writes them all as
its results.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .cue import SeedSpec, checked_size, log_char_poly_stream, qr_log_char_poly_stream

__all__ = ["MomentReport", "weighted_moments", "tilted_moments_mc"]

ESS_FLOOR = 30.0
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # math.exp overflows above it


@dataclass(frozen=True)
class MomentReport:
    """Weighted-moment estimates with delta-method (influence-function) errors for one MC run."""

    sample_count: int
    ess: float
    weighted_mean: float
    central_moments: list[float]
    standard_errors: list[float]  # [1] = SE of the mean, [n>=2] = SE of m_n
    standardized: list[float]  # m_n / m_2^{n/2}
    standardized_errors: list[float]
    # (1/M) sum of raw weights: the normalizer estimate M_N(2k) on the
    # importance-sampled routes only (identically 1 under sampler="split")
    mean_weight: float
    mean_weight_se: float
    low_ess: bool

    def __post_init__(self):
        if not 1.0 <= self.ess <= self.sample_count * (1.0 + 1e-9):
            raise ValueError(f"ess {self.ess} outside [1, sample_count]")
        if self.central_moments[0] != 1.0:
            raise ValueError("central_moments[0] must be 1")
        if any(se < 0 for se in self.standard_errors):
            raise ValueError("standard errors must be nonnegative")


def weighted_moments(values, log_weights, n_max):
    """Self-normalized moment estimates plus delta-method (influence-function) standard errors.

    One pass from a table whose row p is w y^p, p = 0..max(n_max, 1),
    with w = exp(log_weights - shift), shift the largest log-weight, and
    y = values - mean, where mean is the reported weighted mean.  With
    S_p the row sums, m_p follows from S_p/S_0 by binomial re-centring on
    the rounding S_1/S_0 left in the mean.  With a = w / mean(w), the
    influence function of draw i is a y (mean), a - 1 (log mean-weight),
    IF_p = a [y^p - m_p - p m_{p-1} y] (m_p), and for m_p / m_2^{p/2} the
    chain rule IF_p / m_2^{p/2} - (p/2) (m_p / m_2^{p/2}) IF_2 / m_2.  An
    SE is sqrt(sum IF^2) / m = sqrt(sum J^2) / S_0, where J = w IF / a is
    a combination of table rows, for m_p w y^p - m_p w - p m_{p-1} w y.
    The influence functions treat the (value, weight) pairs as the
    i.i.d. unit, because the weights are paired with the values they came
    from.  A vanishing m_2, or an m_2^{p/2} outside the float range,
    leaves a non-finite standardized moment and error rather than raising.
    The effective sample size is (sum w)^2 / sum w^2 over row 0.  The
    log-weights must be nonempty, with a finite largest entry.
    """
    values = np.asarray(values, dtype=float)
    log_weights = np.asarray(log_weights, dtype=float)
    if values.shape != log_weights.shape or values.ndim != 1:
        raise ValueError("values and log_weights must be equal-length 1-d arrays")
    checked_size("n_max", n_max, 0)
    order = np.lexsort((log_weights, values))
    values = values[order]
    log_weights = log_weights[order]
    del order  # not needed for the table, whose peak it would raise
    m = len(values)
    shift = np.max(log_weights, initial=-np.inf)  # puts the largest weight at 1
    if not np.isfinite(shift):
        raise ValueError("log_weights must be nonempty, with a finite largest entry")
    table = np.empty((max(n_max, 1) + 1, m))
    table[0] = np.exp(log_weights - shift)
    s0 = np.sum(table[0])
    ess = float(s0**2 / np.dot(table[0], table[0]))
    mean = float(np.sum(table[0] * values) / s0)
    for p in range(1, len(table)):  # w y^p, with y = values - mean formed in place
        np.subtract(values, mean, out=table[p])
        table[p] *= table[p - 1]
    raw = [np.sum(row) / s0 for row in table]  # E[y^p]

    def root_sum_square(x):
        return float(np.sqrt(np.sum(x * x)) / s0)

    log_mean_weight = float(shift + np.log(s0) - math.log(m))
    mean_weight = math.exp(log_mean_weight) if log_mean_weight <= _LOG_FLOAT_MAX else math.inf
    mean_weight_se = mean_weight * root_sum_square(table[0] - s0 / m)  # delta method on log scale
    central, errors = [1.0, 0.0], [0.0, root_sum_square(table[1])]
    standardized, standardized_errors = [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]
    with np.errstate(all="ignore"):
        # point powers by the np.power ufunc, the SE's m_2^{p/2} by scalar **: they can differ by an ulp
        for p in range(2, n_max + 1):
            central.append(sum(math.comb(p, j) * raw[j] * np.power(-raw[1], p - j) for j in range(p + 1)))
            influence = table[p] - central[p] * table[0] - p * central[p - 1] * table[1]
            errors.append(root_sum_square(influence))
            if p == 2:
                m2, influence_2 = central[2], influence
            elif m2 > 0:
                standardized.append(central[p] / np.power(m2, 0.5 * p))
                standardized_errors.append(
                    root_sum_square(influence / m2 ** (0.5 * p) - (0.5 * p * standardized[p] / m2) * influence_2)
                )
            else:
                standardized.append(math.nan)
                standardized_errors.append(math.nan)

    low = ess < ESS_FLOOR
    if low:
        warnings.warn(
            f"effective sample size {ess:.1f} below {ESS_FLOOR}; estimates unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    return MomentReport(
        sample_count=m,
        ess=ess,
        weighted_mean=mean,
        central_moments=[float(c) for c in central[: n_max + 1]],
        standard_errors=errors[: n_max + 1],
        standardized=[float(s) for s in standardized[: n_max + 1]],
        standardized_errors=standardized_errors[: n_max + 1],
        mean_weight=mean_weight,
        mean_weight_se=mean_weight_se,
        low_ess=bool(low),
    )


def tilted_moments_mc(n, k, n_max, samples, seed: SeedSpec, sampler):
    """Monte Carlo tilted moments of log|Z| at matrix size n, tilt k.

    The caller names the sampler; there is no default.  sampler="split"
    draws `samples` values v_i = log|Z_i| exactly from the tilted law,
    with zero log-weights, so the effective sample size is `samples` and
    mean_weight is 1; it needs k in N and raises ValueError otherwise.
    sampler="cmv" (the splitting stream at k = 0, whose factors are
    deformed Verblunsky coefficients) or "qr" (dense QR) draws Haar
    instances instead, sets log-weights 2k v_i for any real k >= 0, and
    mean_weight then estimates the normalizer M_N(2k).  Either way the estimates are reduced with delta-method
    (influence-function) errors by `weighted_moments`.
    """
    checked_size("samples", samples, 10**3)
    if not isinstance(n_max, numbers.Integral) or not 0 <= n_max <= 8:
        raise ValueError(f"n_max must be an integer in [0, 8] for MC, got {n_max!r}")
    if not 0 <= k < math.inf:
        raise ValueError(f"tilt k must be finite and nonnegative, got {k}")
    if sampler == "split":
        if not float(k).is_integer():
            raise ValueError(
                f'sampler="split" needs an integer tilt k, got {k}; use sampler="cmv" for real k'
            )
        values = log_char_poly_stream(n, samples, seed, k=k)
    elif sampler == "cmv":
        values = log_char_poly_stream(n, samples, seed)
    elif sampler == "qr":
        values = qr_log_char_poly_stream(n, samples, seed)
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    log_weights = np.zeros_like(values) if sampler == "split" else 2.0 * k * values
    return weighted_moments(values, log_weights, n_max)
