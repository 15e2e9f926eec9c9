"""One array kernel for log-Gamma and its derivatives.

`log_gamma_jet` shifts its arguments up with the recurrence until they clear
a cutoff, then sums the Stirling series from the one exact Bernoulli table
below (which `zeta_eval` shares).  Everything here is pure and re-entrant.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = ["log_gamma_jet", "BERNOULLI_EVEN"]


def _bernoulli_even(count):
    """Exact B_2, B_4, ..., B_{2*count}.

    The defining recurrence sum_{j<=m} C(m+1, j) B_j = 0 at even m = 2n, with
    B_1 = -1/2 and the odd B_j (j > 1) zero, gives B_2n from B_0..B_{2n-2}.
    """
    b = [Fraction(1)]
    for n in range(1, count + 1):
        acc = Fraction(-(2 * n + 1), 2) + sum(math.comb(2 * n + 1, 2 * k) * b[k] for k in range(n))
        b.append(-acc / (2 * n + 1))
    return [float(x) for x in b[1:]]


BERNOULLI_EVEN = _bernoulli_even(16)

MAX_ORDER = 32
# the Stirling series is summed directly from SERIES_CUTOFF + order / 2 on,
# where its 16 terms leave every coefficient below 1e-17 relative
SERIES_CUTOFF = 12.0


def _stirling_matrix():
    """Row r: coefficients of y^{-p}, p = 0..32, in a_r(y) / y^{1-r} beyond the log terms.

    log Gamma(y) = (y - 1/2) log y - y + log(2 pi)/2 + sum_n c_n y^{1-2n} with
    c_n = B_2n / (2n (2n-1)); the r-th Taylor coefficient of c_n y^{1-2n} is
    c_n binom(1-2n, r) y^{1-2n-r}, and (y - 1/2) log y - y gives
    (-1)^r [1/(r(r-1)) + 1/(2 r y)] y^{1-r} for r >= 2 and -1/(2y) at r = 1.
    """
    r = np.arange(MAX_ORDER + 1)
    n = np.arange(1, len(BERNOULLI_EVEN) + 1)
    # binom(1-2n, r) = prod_{i<r} (1-2n-i)/(i+1), one column per n
    steps = (1 - 2 * n - r[:-1, None]) / (r[:-1, None] + 1)
    binom = np.cumprod(np.vstack([np.ones(len(n)), steps]), axis=0)
    mat = np.zeros((MAX_ORDER + 1, 2 * len(n) + 1))
    mat[2:, 0] = (-1.0) ** r[2:] / (r[2:] * (r[2:] - 1))
    mat[1:, 1] = (-1.0) ** r[1:] / (2 * r[1:])
    mat[:, 2::2] = np.array(BERNOULLI_EVEN) / (2 * n * (2 * n - 1)) * binom
    return mat


_STIRLING = _stirling_matrix()
_POWERS = np.arange(_STIRLING.shape[1])[:, None]
_R = np.arange(MAX_ORDER + 1)[:, None]
_LOG_JET = -((-1.0) ** _R[1:]) / _R[1:]  # (-1)^{r+1} / r, r >= 1: log(x + eps) in (eps/x)^r
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma_jet(x, order):
    """Taylor coefficients a_r(x) = (d/dx)^r log Gamma(x) / r!, r = 0..order.

    x is a real array (or scalar) with every entry finite and > 0; the result
    has shape (order + 1,) + shape(x), so a_1 is psi and (m+1)! a_{m+1} is
    psi^(m).
    """
    x = np.asarray(x, dtype=float)
    if not ((x > 0) & (x < np.inf)).all():
        raise ValueError(f"log_gamma_jet requires finite x > 0, got {x}")
    if not isinstance(order, (int, np.integer)) or not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be an integer in [0, {MAX_ORDER}], got {order}")
    flat = x.ravel()
    shift = np.maximum(np.ceil(SERIES_CUTOFF + 0.5 * order - flat), 0.0)
    y = flat + shift
    r = _R[: order + 1]
    out = y ** (1 - r) * (_STIRLING[: order + 1] @ (1.0 / y) ** _POWERS)
    log_y = np.log(y)
    out[0] += (y - 0.5) * log_y - y + _HALF_LOG_2PI
    out[1:2] += log_y  # psi, when order >= 1
    if shift.any():
        # log Gamma(x) = log Gamma(y) - sum_{i < shift} log(x + i), subtracted as
        # jets: log(x+i) and (-1)^{r+1} / (r (x+i)^r) for r >= 1
        i = np.arange(shift.max())[:, None]
        live = i < shift
        steps = np.where(live, flat + i, 1.0)
        out[0] -= np.log(steps.prod(axis=0))
        inv = np.where(live, 1.0 / steps, 0.0)
        out[1:] -= _LOG_JET[:order] * (inv ** r[1:, :, None]).sum(axis=1)
    return out.reshape((order + 1,) + x.shape)
