"""Coverage of the Monte Carlo standard errors against exact tilted moments.

    PYTHONPATH=src python tests/se_coverage.py --seeds 40

For each seed and each cell, one draw of the splitting stream, reduced
as `tilted_moments_mc` reduces it, gives the mean and variance of log|Z|
with their delta-method (influence-function) SEs, and
`oracles.bootstrap_errors_loop` gives 400-resample bootstrap SEs of the
same draws.  The script reports, per cell, estimate and estimator,
the share of seeds whose |MC - exact| lies within 2 SE, with its binomial
standard error sqrt(p (1 - p) / seeds); a correct SE puts that share
near 95%.  Pytest does not collect this file: it takes a few minutes
per 40 seeds.
"""

from __future__ import annotations

import argparse
import math
import warnings

import numpy as np

from oracles import bootstrap_errors_loop
from tiltlab.cue import SeedSpec, log_char_poly_stream
from tiltlab.estimator import weighted_moments
from tiltlab.rmt_exact import weighted_central_moments

# (label, sampler, N, k, draws): one exact tilted cell and one importance-sampled cell, each
# drawn and weighted as `tilted_moments_mc(sampler=...)` draws it; the importance-sampled
# cell needs 1e5 draws for an ESS in the thousands (2e4 draws gave ESS 93)
CELLS = (
    ("split N=20 k=1", "split", 20, 1, 20000),
    ("cmv N=20 k=1", "cmv", 20, 1, 100000),
)
BOOTSTRAP = 400


def coverage(seeds):
    """{(cell, estimate, estimator): hits} and the smallest ESS of each cell."""
    hits, min_ess = {}, {}
    for label, sampler, n, k, draws in CELLS:
        exact = weighted_central_moments(n, float(k), 2)
        targets = (("mean", exact.mu_weighted), ("variance", exact.central_moments[2]))
        for seed in range(1, seeds + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                split = sampler == "split"
                values = log_char_poly_stream(n, draws, SeedSpec(seed), k=k if split else 0)
                log_weights = np.zeros_like(values) if split else 2.0 * k * values
                report = weighted_moments(values, log_weights, 2)
            min_ess[label] = min(min_ess.get(label, math.inf), report.ess)
            boot, _, _ = bootstrap_errors_loop(values, log_weights, 2, BOOTSTRAP, seed)
            estimates = (report.weighted_mean, report.central_moments[2])
            for order, ((name, target), value) in enumerate(zip(targets, estimates), start=1):
                for estimator, se in (("delta", report.standard_errors[order]), ("bootstrap", boot[order])):
                    key = (label, name, estimator)
                    hits[key] = hits.get(key, 0) + (abs(value - target) < 2.0 * se)
    return hits, min_ess


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=40)
    args = parser.parse_args(argv)
    hits, min_ess = coverage(args.seeds)
    print(f"share of {args.seeds} seeds with |MC - exact| < 2 SE (binomial SE in brackets)")
    print(f"{'cell':<16} {'min ESS':>8} {'estimate':<9} {'delta':>14} {'bootstrap':>14}")
    for label, *_ in CELLS:
        for name in ("mean", "variance"):
            cells = []
            for estimator in ("delta", "bootstrap"):
                p = hits[(label, name, estimator)] / args.seeds
                cells.append(f"{p:.3f} [{math.sqrt(p * (1 - p) / args.seeds):.3f}]")
            print(f"{label:<16} {min_ess[label]:>8.0f} {name:<9} {cells[0]:>14} {cells[1]:>14}")


if __name__ == "__main__":
    main()
