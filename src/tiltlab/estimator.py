"""Monte Carlo moments of log|Z| under the tilted measure |Z|^{2k} d_Haar.

By default (sampler="split") samples come from the tilted law itself, via
the splitting stream ``cue.log_char_poly_stream`` at tilt k; every
log-weight is then zero and k must be a nonnegative integer.  The
importance-sampled routes draw from plain Haar ("cmv": the same stream at
tilt 0; "qr": dense QR) and carry the tilt in self-normalized
log-weights 2k log|Z|, for any real k >= 0; they degenerate at high tilt
(effective sample size ~10^2 of 2e5 at N=200, k=1).

`reduce_weighted` takes every weighted moment from one table of w y^p
(w = exp(log_weights - max), y = values - mean) and one kernel from power
sums to moments: the point estimate is the kernel on the table's column
sums, each bootstrap resample the kernel on its counts @ table, and the
effective sample size (sum w)^2 / sum w^2 is taken in linear space over
the same w.  Every reduction first sorts the (value, log-weight) pairs,
so every reported field is invariant under permutations of the input
stream, and the bootstrap (which resamples matrices, i.e. pairs) is
bit-reproducible for a fixed bootstrap seed.
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
    "reduce_weighted",
    "tilted_moments_mc",
    "gaussian_conformance",
]

ESS_FLOOR = 30.0
DEFAULT_BOOTSTRAP = 400
DEFAULT_BOOTSTRAP_SEED = 1618033988
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # math.exp overflows above it


@dataclass(frozen=True)
class MomentReport:
    """Weighted-moment estimates with bootstrap errors for one MC run."""

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
    """(sum w)^2 / sum w^2 in linear space, with w = exp(log_weights - max) as in reduce_weighted."""
    lw = np.asarray(log_weights, dtype=float)
    shift = np.max(lw, initial=-np.inf)
    if not np.isfinite(shift):
        raise ValueError("log_weights must be nonempty, with a finite largest entry")
    w = np.exp(lw - shift)
    return float(np.sum(w) ** 2 / np.dot(w, w))


_BOOTSTRAP_BLOCK = 8  # resamples whose counts are contracted together
_HEAVY = 64  # a resample holding none of the 64 heaviest points gets its own shift
_SHIFT_GAP = 300.0  # a resample whose largest log-weight sits further below gets its own shift


def _power_sums(values, log_weights, n_max, n_boot, seed):
    """(mean, sums, scale): power sums of n_boot resamples and, in the last row, of the sample.

    Row b holds S_p = sum c_i w_i y_i^p, p = 0..max(n_max, 1), with
    w = exp(log_weights - scale[b]) and y = values - mean, where mean is the
    weighted mean.  Resample b is the draw rng.integers(0, m, m) of a
    per-resample loop, kept as counts c = bincount(idx); a block of count
    rows takes its sums in one matrix product with the table w y^p, and the
    sample's row has c = 1.  A resample that misses every heavy point (among
    the _HEAVY largest log-weights and within _SHIFT_GAP of the largest) could
    lose its sums to underflow, so its sums are taken under its own max-shift.
    """
    m = len(values)
    shift = np.max(log_weights)
    powers = np.empty((m, max(n_max, 1) + 1))
    powers[:, 0] = np.exp(log_weights - shift)
    mean = float(np.sum(powers[:, 0] * values) / np.sum(powers[:, 0]))
    for p in range(1, powers.shape[1]):  # w y^p, with y = values - mean formed in place
        np.subtract(values, mean, out=powers[:, p])
        powers[:, p] *= powers[:, p - 1]
    heavy = np.argsort(log_weights)[-_HEAVY:]
    heavy = heavy[log_weights[heavy] >= shift - _SHIFT_GAP]

    rng = np.random.default_rng(seed)
    sums = np.empty((n_boot + 1, powers.shape[1]))
    sums[n_boot] = [np.sum(column) for column in powers.T]
    scale = np.full(n_boot + 1, shift)
    counts = np.empty((min(_BOOTSTRAP_BLOCK, n_boot), m))
    for lo in range(0, n_boot, len(counts)):
        block = counts[: min(len(counts), n_boot - lo)]
        for row in block:
            row[:] = np.bincount(rng.integers(0, m, m), minlength=m)
        sums[lo : lo + len(block)] = block @ powers
        for b in np.flatnonzero(~(block[:, heavy] > 0).any(axis=1)):
            drawn = np.flatnonzero(block[b])
            own = np.max(log_weights[drawn])
            scale[lo + b] = own
            w = block[b, drawn] * np.exp(log_weights[drawn] - own)
            sums[lo + b] = w @ ((values[drawn, None] - mean) ** np.arange(powers.shape[1]))
    return mean, sums, scale


def _moment_columns(sums, scale, mean, n_max, m):
    """Columns [mean, log mean-weight, m_2..m_n_max, m_n / m_2^{n/2} for n >= 3] of power-sum rows.

    A row's mean is mean + S_1/S_0; its central moments about that mean
    follow from S_p/S_0 by binomial re-centring on the shift S_1/S_0.  A
    vanishing m_2, or an m_2^{n/2} below the float range, leaves a
    non-finite standardized moment rather than raising.
    """
    raw = sums / sums[:, :1]  # E_b[y^p]
    d = raw[:, 1]
    central = [
        sum(math.comb(n, j) * raw[:, j] * (-d) ** (n - j) for j in range(n + 1)) for n in range(2, n_max + 1)
    ]
    with np.errstate(all="ignore"):
        standardized = [
            np.where(central[0] > 0, c / central[0] ** (0.5 * n), np.nan) for n, c in enumerate(central[1:], 3)
        ]
    return np.column_stack([mean + d, scale + np.log(sums[:, 0]) - math.log(m), *central, *standardized])


def reduce_weighted(
    values,
    log_weights,
    n_max,
    bootstrap=DEFAULT_BOOTSTRAP,
    bootstrap_seed=DEFAULT_BOOTSTRAP_SEED,
    keep_samples=True,
):
    """Self-normalized moment estimates plus bootstrap standard errors.

    The point estimate and every resample are `_moment_columns` of one
    row of `_power_sums`; the reported mean is the one the table is
    centred on.  The bootstrap resamples (value, weight) pairs with
    replacement, which is the right resampling unit because the weights
    are paired with the values they came from.
    """
    values = np.asarray(values, dtype=float)
    log_weights = np.asarray(log_weights, dtype=float)
    if values.shape != log_weights.shape or values.ndim != 1:
        raise ValueError("values and log_weights must be equal-length 1-d arrays")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    n_boot = int(bootstrap)
    if n_boot < 200:
        raise ValueError("bootstrap resample count must be >= 200")
    order = np.lexsort((log_weights, values))
    values = values[order]
    log_weights = log_weights[order]
    del order  # not needed for the bootstrap, whose peak it would raise
    m = len(values)
    ess = effective_sample_size(log_weights)

    mean, sums, scale = _power_sums(values, log_weights, n_max, n_boot, bootstrap_seed)
    columns = _moment_columns(sums, scale, mean, n_max, m)
    point = [float(x) for x in columns[n_boot]]
    ses = [float(s) for s in np.std(columns[:n_boot], axis=0, ddof=1)]
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
    bootstrap_seed=DEFAULT_BOOTSTRAP_SEED,
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
    M_N(2k).  Either way the estimates are reduced with bootstrap errors.
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
    return reduce_weighted(values, log_weights, n_max, bootstrap_seed=bootstrap_seed, keep_samples=keep_samples)


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
    """MC-vs-exact deviations, each in units of its bootstrap SE."""

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
