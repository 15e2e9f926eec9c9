"""tiltlab: tilted CUE statistics and weighted value distributions of zeta.

Exact side: closed-form moments and cumulant sums of log|Z| under
|Z|^{2k} d_Haar.  Monte Carlo side: sharded streams of log|Z| (one
splitting sampler, exact at any integer tilt and plain Haar at tilt 0,
and dense QR Haar draws; Haar draws are reweighted by self-normalized
importance sampling), reduced to weighted moments with delta-method
errors.  Zeta side: critical-line evaluators, prime-window Dirichlet
polynomials, weighted scans, and the shifted-moment recipe combinatorics.
Every function here but the `shifts` recipe helpers is reached from the
`tiltlab` command line; `tests/test_api.py` traces the runs that show it.
"""

import os

# one BLAS thread unless set otherwise, before numpy starts its pools: the calls are small, an
# idle BLAS worker spins beside tiltlab's own pools, and a split reduction changes its last
# bits.  cli.main pins a pool numpy started before this ran (threads.py: Linux, OpenBLAS).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .cue import SeedSpec
from .estimator import MomentReport, tilted_moments_mc
from .rmt_exact import (
    ExactMomentReport,
    log_moment_mn,
    weighted_central_moments,
    weighted_mean,
)
from .shifts import (
    SelectionPair,
    ShiftTuple,
    enumerate_selections,
    g_p_factor,
    second_moment_recipe_k1,
    swap_shifts,
)
from .zeta_eval import zeta_line
from .zeta_lab import ScanSpec, mu_alpha, weighted_scan

__all__ = [
    "__version__",
    "SeedSpec",
    "MomentReport",
    "tilted_moments_mc",
    "ExactMomentReport",
    "log_moment_mn",
    "weighted_central_moments",
    "weighted_mean",
    "SelectionPair",
    "ShiftTuple",
    "enumerate_selections",
    "g_p_factor",
    "second_moment_recipe_k1",
    "swap_shifts",
    "zeta_line",
    "ScanSpec",
    "mu_alpha",
    "weighted_scan",
]
