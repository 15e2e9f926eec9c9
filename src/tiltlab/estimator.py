"""Monte Carlo moments of log|Z| under the tilted measure |Z|^{2k} d_Haar.

By default (sampler="split") samples come from the tilted law itself, via
the splitting stream ``cue.log_char_poly_stream`` at tilt k; every
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
sample size (sum w)^2 / sum w^2 is taken in linear space over the same
w.  Every reduction first sorts the (value, log-weight) pairs, so every
reported field is invariant under permutations of the input stream.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rmt_exact
from .cue import SeedSpec, log_char_poly_stream, qr_log_char_poly_stream
from .special import gaussian_central_moment

__all__ = [
    "MomentReport",
    "ConformanceRecord",
    "effective_sample_size",
    "weighted_moments",
    "tilted_moments_mc",
    "gaussian_conformance",
]

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
    proxy_correlation: float | None = None
    values: np.ndarray | None = field(default=None, repr=False)
    log_weights: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not 1.0 <= self.ess <= self.sample_count * (1.0 + 1e-9):
            raise ValueError(f"ess {self.ess} outside [1, sample_count]")
        if self.central_moments[0] != 1.0:
            raise ValueError("central_moments[0] must be 1")
        if any(se < 0 for se in self.standard_errors):
            raise ValueError("standard errors must be nonnegative")


def effective_sample_size(log_weights):
    """(sum w)^2 / sum w^2 in linear space, with w = exp(log_weights - max) as in weighted_moments."""
    lw = np.asarray(log_weights, dtype=float)
    shift = np.max(lw, initial=-np.inf)
    if not np.isfinite(shift):
        raise ValueError("log_weights must be nonempty, with a finite largest entry")
    w = np.exp(lw - shift)
    return float(np.sum(w) ** 2 / np.dot(w, w))


def weighted_moments(values, log_weights, n_max, keep_samples=True):
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
    """
    values = np.asarray(values, dtype=float)
    log_weights = np.asarray(log_weights, dtype=float)
    if values.shape != log_weights.shape or values.ndim != 1:
        raise ValueError("values and log_weights must be equal-length 1-d arrays")
    if not isinstance(n_max, numbers.Integral) or n_max < 0:
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max!r}")
    order = np.lexsort((log_weights, values))
    values = values[order]
    log_weights = log_weights[order]
    del order  # not needed for the table, whose peak it would raise
    m = len(values)
    ess = effective_sample_size(log_weights)

    shift = np.max(log_weights)
    table = np.empty((max(n_max, 1) + 1, m))
    table[0] = np.exp(log_weights - shift)
    mean = float(np.sum(table[0] * values) / np.sum(table[0]))
    for p in range(1, len(table)):  # w y^p, with y = values - mean formed in place
        np.subtract(values, mean, out=table[p])
        table[p] *= table[p - 1]
    s0 = np.sum(table[0])
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
        values=values if keep_samples else None,
        log_weights=log_weights if keep_samples else None,
    )


def tilted_moments_mc(
    n,
    k,
    n_max,
    samples,
    seed: SeedSpec,
    sampler="split",
    keep_samples=True,
):
    """Monte Carlo tilted moments of log|Z| at matrix size n, tilt k.

    sampler="split" (the default) draws `samples` values v_i = log|Z_i|
    exactly from the tilted law, with zero log-weights, so the effective
    sample size is `samples` and mean_weight is 1; it needs k in N and
    raises ValueError otherwise.  sampler="cmv" (the splitting stream at
    k = 0, whose factors are deformed Verblunsky coefficients) or "qr"
    (dense QR) draws Haar instances instead, sets log-weights 2k v_i for
    any real k >= 0, and mean_weight then estimates the normalizer
    M_N(2k).  Either way the estimates are reduced with delta-method
    (influence-function) errors.
    """
    if samples < 10**3:
        raise ValueError(f"samples must be >= 1000, got {samples}")
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
    return weighted_moments(values, log_weights, n_max, keep_samples=keep_samples)


_ERF = np.frompyfunc(math.erf, 1, 1)


def _normal_cdf(x):
    return 0.5 * (1.0 + _ERF(x / math.sqrt(2.0)).astype(float))


def weighted_ks_vs_normal(values, log_weights, mean, variance):
    """sup |weighted ECDF - Normal(mean, variance) CDF| over the sample."""
    order = np.argsort(values)
    v = values[order]
    w = np.exp(log_weights[order] - np.max(log_weights))
    cw = np.cumsum(w)
    cw /= cw[-1]
    cdf = _normal_cdf((v - mean) / math.sqrt(variance))
    upper = np.max(np.abs(cw - cdf))
    lower = np.max(np.abs(np.concatenate(([0.0], cw[:-1])) - cdf))
    return float(max(upper, lower))


@dataclass(frozen=True)
class ConformanceRecord:
    """MC-vs-exact deviations, each in units of its delta-method (influence-function) SE."""

    mean_deviation: float
    variance_deviation: float
    standardized_deviations: dict
    ks_statistic: float
    exact_mean: float
    exact_variance: float
    exact_standardized: dict


def gaussian_conformance(report: MomentReport, n, k) -> ConformanceRecord:
    """Compare an MC report against the exact tilted values and the Gaussian law.

    Standardized moments are compared against (n-1)!! (even orders) or 0
    (odd orders); the KS statistic pits the reweighted empirical CDF
    against Normal(exact mean, exact variance).
    """
    n_max = len(report.central_moments) - 1
    if n_max < 2:
        raise ValueError(f"report must carry the variance (n_max >= 2), got n_max {n_max}")
    if report.values is None:
        raise ValueError("report must keep samples for the KS statistic")
    exact = rmt_exact.weighted_central_moments(rmt_exact.TiltSpec(n, float(k), max(2, n_max)))
    mu_e = exact.mu_weighted
    m2_e = exact.central_moments[2]
    mean_dev = (report.weighted_mean - mu_e) / report.standard_errors[1]
    var_dev = (report.central_moments[2] - m2_e) / report.standard_errors[2]
    std_devs = {}
    exact_std = {}
    for order in range(3, n_max + 1):
        target = gaussian_central_moment(order, 1.0)
        se = report.standardized_errors[order]
        std_devs[order] = (report.standardized[order] - target) / se if se > 0 else float("nan")
        exact_std[order] = exact.central_moments[order] / m2_e ** (0.5 * order)
    ks = weighted_ks_vs_normal(report.values, report.log_weights, mu_e, m2_e)
    return ConformanceRecord(
        mean_deviation=float(mean_dev),
        variance_deviation=float(var_dev),
        standardized_deviations=std_devs,
        ks_statistic=ks,
        exact_mean=mu_e,
        exact_variance=m2_e,
        exact_standardized=exact_std,
    )
