"""Monte Carlo moments of log|Z| under the tilted measure |Z|^{2k} d_Haar.

By default (sampler="split") samples come from the tilted law itself, via
the splitting stream ``cue.log_char_poly_stream`` at tilt k; every
log-weight is then zero and k must be a nonnegative integer.  The
importance-sampled routes draw from plain Haar ("cmv": the same stream at
tilt 0; "qr": dense QR) and carry the tilt in self-normalized
log-weights 2k log|Z|, for any real k >= 0; they degenerate at high tilt
(effective sample size ~10^2 of 2e5 at N=200, k=1).

`weighted_moments` takes every weighted moment from one table of w y^p
(w = exp(log_weights - max), y = values - mean): the point estimate is
one kernel from power sums to moments on the table's power sums, and
its standard errors are delta-method (influence-function) errors, each
one pass over the same table.  The effective sample size
(sum w)^2 / sum w^2 is taken in linear space over the same w.  Every
reduction first sorts the (value, log-weight) pairs, so every reported
field is invariant under permutations of the input stream.
"""

from __future__ import annotations

import math
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


def _power_sums(values, log_weights, n_max):
    """(mean, shift, table, sums): row p of the table is w y^p, p = 0..max(n_max, 1), and sums its S_p.

    w = exp(log_weights - shift), with shift the largest log-weight, and
    y = values - mean, where mean is the weighted mean.  sums is one row
    of power sums, the layout `_moment_columns` reads.
    """
    shift = np.max(log_weights)
    table = np.empty((max(n_max, 1) + 1, len(values)))
    table[0] = np.exp(log_weights - shift)
    mean = float(np.sum(table[0] * values) / np.sum(table[0]))
    for p in range(1, len(table)):  # w y^p, with y = values - mean formed in place
        np.subtract(values, mean, out=table[p])
        table[p] *= table[p - 1]
    return mean, shift, table, np.array([[np.sum(row) for row in table]])


def _moment_columns(sums, scale, mean, n_max, m):
    """Columns [mean, log mean-weight, m_2..m_n_max, m_n / m_2^{n/2} for n >= 3] of power-sum rows.

    A row's mean is mean + S_1/S_0; its central moments about that mean
    follow from S_p/S_0 by binomial re-centring on the shift S_1/S_0.  A
    vanishing m_2, or an m_2^{n/2} below the float range, leaves a
    non-finite standardized moment rather than raising.
    """
    raw = sums / sums[:, :1]  # E[y^p]
    d = raw[:, 1]
    central = [
        sum(math.comb(n, j) * raw[:, j] * (-d) ** (n - j) for j in range(n + 1)) for n in range(2, n_max + 1)
    ]
    with np.errstate(all="ignore"):
        standardized = [
            np.where(central[0] > 0, c / central[0] ** (0.5 * n), np.nan) for n, c in enumerate(central[1:], 3)
        ]
    return np.column_stack([mean + d, scale + np.log(sums[:, 0]) - math.log(m), *central, *standardized])


def _influence_errors(table, s0, point, n_max):
    """Delta-method SEs of the `_moment_columns` entries of the sample, in the same order.

    With a = w / mean(w), the influence function of draw i is a y (mean),
    a - 1 (log mean-weight), IF_p = a [y^p - m_p - p m_{p-1} y] (m_p), and
    for m_p / m_2^{p/2} the chain rule IF_p / m_2^{p/2} - (p/2) (m_p / m_2^{p/2}) IF_2 / m_2.
    An estimate's SE is sqrt(sum IF^2) / m = sqrt(sum J^2) / S_0, where
    J = w IF / a is a combination of the table's rows, for m_p
    w y^p - m_p w - p m_{p-1} w y.  A vanishing m_2, or an m_2^{p/2} outside the
    float range, leaves a non-finite standardized error rather than raising.
    """
    central = [1.0, 0.0, *point[2 : 1 + n_max]]  # m_0..m_n_max, numpy scalars from m_2 on

    def root_sum_square(x):
        return float(np.sqrt(np.sum(x * x)) / s0)

    ses = [root_sum_square(table[1]), root_sum_square(table[0] - s0 / table.shape[1])]
    standardized = []
    with np.errstate(all="ignore"):
        for p in range(2, n_max + 1):
            influence = table[p] - central[p] * table[0] - p * central[p - 1] * table[1]
            ses.append(root_sum_square(influence))
            if p == 2:
                m2, influence_2 = central[2], influence
            elif m2 > 0:
                std = point[n_max + p - 2]  # m_p / m_2^{p/2}
                standardized.append(
                    root_sum_square(influence / m2 ** (0.5 * p) - (0.5 * p * std / m2) * influence_2)
                )
            else:
                standardized.append(math.nan)
    return ses + standardized


def weighted_moments(values, log_weights, n_max, keep_samples=True):
    """Self-normalized moment estimates plus delta-method (influence-function) standard errors.

    The point estimate is `_moment_columns` of the power sums of the
    `_power_sums` table, and every SE comes from the influence functions
    over the same table (`_influence_errors`); the reported mean is the
    one the table is centred on.  The influence functions treat the
    (value, weight) pairs as the i.i.d. unit, because the weights are
    paired with the values they came from.
    """
    values = np.asarray(values, dtype=float)
    log_weights = np.asarray(log_weights, dtype=float)
    if values.shape != log_weights.shape or values.ndim != 1:
        raise ValueError("values and log_weights must be equal-length 1-d arrays")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    order = np.lexsort((log_weights, values))
    values = values[order]
    log_weights = log_weights[order]
    del order  # not needed for the table, whose peak it would raise
    m = len(values)
    ess = effective_sample_size(log_weights)

    mean, shift, table, sums = _power_sums(values, log_weights, n_max)
    row = _moment_columns(sums, shift, mean, n_max, m)[0]
    ses = _influence_errors(table, sums[0, 0], row, n_max)
    point = [float(x) for x in row]
    first_std = 2 + max(n_max - 1, 0)  # columns: mean, log mean-weight, m_2.., standardized 3..
    mean_weight = math.exp(point[1]) if point[1] <= _LOG_FLOAT_MAX else math.inf  # no other estimate uses it
    mean_weight_se = float(mean_weight * ses[1])  # delta method on log scale

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
        central_moments=([1.0, 0.0] + point[2:first_std])[: n_max + 1],
        standard_errors=([0.0, ses[0]] + ses[2:first_std])[: n_max + 1],
        standardized=([1.0, 0.0, 1.0] + point[first_std:])[: n_max + 1],
        standardized_errors=([0.0, 0.0, 0.0] + ses[first_std:])[: n_max + 1],
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
    if not 0 <= n_max <= 8:
        raise ValueError(f"n_max must be in [0, 8] for MC, got {n_max}")
    if k < 0:
        raise ValueError(f"tilt k must be nonnegative, got {k}")
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
    if report.values is None:
        raise ValueError("report must keep samples for the KS statistic")
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
