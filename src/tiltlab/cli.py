"""Command-line front end: one subcommand per experiment, CSV/JSON output.

Outputs are written atomically (temp file + rename) and contain a full
config echo, so a result file always identifies the run that produced
it.  Identical config + seed gives byte-identical files.  Exit codes:
0 success (numerical warnings still exit 0), 2 precondition violation
(including a NaN or infinite float argument), 3 numerical failure
(including a non-finite value in a JSON result, which is never written).
"""

from __future__ import annotations

import os

# honor the thread-count override before numpy initializes its BLAS pools
_threads = os.environ.get("TILTLAB_THREADS")
if _threads:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import json
import math
import sys
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cue import SeedSpec, rotation_invariance_check
from .estimator import tilted_moments_mc
from .rmt_exact import TiltSpec, weighted_central_moments
from .shifts import enumerate_selections, second_moment_quadrature_k1, second_moment_recipe_k1
from .zeta_lab import PrimeWindow, ScanSpec, default_window, mu_alpha, weighted_scan

__all__ = ["RunConfig", "run", "main"]

SUBCOMMANDS = (
    "exact-moments",
    "mc-tilt",
    "cue-check",
    "zeta-scan",
    "mu-alpha",
    "shift-table",
    "recipe-k1",
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class RunConfig:
    """A fully-validated run request."""

    subcommand: str
    parameters: dict
    output_path: str | None
    seed: int
    fmt: str

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.fmt!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        for name, value in self.parameters.items():
            for x in value if isinstance(value, list) else [value]:
                if isinstance(x, float) and not math.isfinite(x):
                    raise ValueError(f"{name} must be finite, got {x}")


def _fmt_float(x):
    return repr(float(x))


def _atomic_write(path, data: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tiltlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(config: RunConfig, results: dict, rows, warnings_list):
    """rows: (column_names, list of value tuples) for CSV mode."""
    echo = {
        "subcommand": config.subcommand,
        "seed": config.seed,
        "format": config.fmt,
        "version": __version__,
        "parameters": config.parameters,
    }
    if config.fmt == "json":
        payload = {"config": echo, "results": results, "warnings": warnings_list}
        try:
            text = json.dumps(
                payload, sort_keys=True, indent=2, default=_json_default, allow_nan=False
            )
        except ValueError as exc:  # a NaN or infinity would make the file invalid JSON
            raise FloatingPointError(f"non-finite result: {exc}") from None
        text += "\n"
    else:
        header_kv = " ".join(f"{k}={v}" for k, v in sorted(config.parameters.items()))
        lines = [
            f"# tiltlab v{__version__} {config.subcommand} seed={config.seed} {header_kv}".rstrip()
        ]
        for w in warnings_list:
            lines.append(f"# warning: {w}")
        columns, data_rows = rows
        lines.append("# " + ",".join(columns))
        for row in data_rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
    if config.output_path:
        _atomic_write(config.output_path, text)
    else:
        sys.stdout.write(text)
    return text


def _csv_cell(v):
    if isinstance(v, float):
        return _fmt_float(v)
    return str(v)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def run(config: RunConfig) -> int:
    """Execute one run; returns the exit status and writes artifacts."""
    handler = _HANDLERS[config.subcommand]
    warnings_list: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results, rows = handler(config)
        warnings_list = [str(w.message) for w in caught]
    _emit(config, results, rows, warnings_list)
    target = config.output_path or "stdout"
    summary = f"tiltlab v{__version__} {config.subcommand} seed={config.seed} -> {target}"
    for w in warnings_list:
        summary += f" [warning: {w}]"
    print(summary, file=sys.stderr)
    return EXIT_OK


# --------------------------------------------------------------------------
# handlers
# --------------------------------------------------------------------------


def _handle_exact_moments(config):
    p = config.parameters
    report = weighted_central_moments(TiltSpec(N=p["n"], k=p["k"], n_max=p["orders"]))
    results = {
        "log_mn": report.log_mn,
        "mu_weighted": report.mu_weighted,
        "central_moments": report.central_moments,
        "cumulant_sums": report.cumulant_sums,
    }
    rows = (
        ("order", "central_moment"),
        [(n, m) for n, m in enumerate(report.central_moments)],
    )
    return results, rows


def _handle_mc_tilt(config):
    p = config.parameters
    report = tilted_moments_mc(
        p["n"],
        p["k"],
        p["orders"],
        p["samples"],
        SeedSpec(config.seed),
        sampler=p["sampler"],
        bootstrap_seed=config.seed + 2**32,
        keep_samples=False,
    )
    results = {
        "sample_count": report.sample_count,
        "ess": report.ess,
        "low_ess": report.low_ess,
        "weighted_mean": report.weighted_mean,
        "central_moments": report.central_moments,
        "standard_errors": report.standard_errors,
        "standardized": report.standardized,
        "standardized_errors": report.standardized_errors,
        "mean_weight": report.mean_weight,
        "mean_weight_se": report.mean_weight_se,
    }
    rows = (
        ("order", "central_moment", "standard_error"),
        [
            (n, report.central_moments[n], report.standard_errors[n])
            for n in range(len(report.central_moments))
        ],
    )
    return results, rows


def _handle_cue_check(config):
    p = config.parameters
    check = rotation_invariance_check(
        p["n"], p["trials"], SeedSpec(config.seed), phi=p["phi"]
    )
    results = {
        "statistic": check.statistic,
        "threshold": check.threshold,
        "passed": check.passed,
        "trials": check.trials,
        "phi": check.phi,
    }
    rows = (
        ("statistic", "threshold", "passed"),
        [(check.statistic, check.threshold, int(check.passed))],
    )
    return results, rows


def _handle_zeta_scan(config):
    p = config.parameters
    if p["window_lo"] is not None and p["window_hi"] is not None:
        window = PrimeWindow.from_bounds(p["window_lo"], p["window_hi"])
    else:
        window = default_window(p["t"])
    spec = ScanSpec(
        T=p["t"],
        samples=p["samples"],
        k=p["k"],
        m=p["m"],
        alpha=p["alpha"],
        window=window,
        seed=SeedSpec(config.seed),
    )
    hist, report = weighted_scan(spec)
    results = {
        "weighted_mean": report.weighted_mean,
        "central_moments": report.central_moments,
        "standard_errors": report.standard_errors,
        "ess": report.ess,
        "low_ess": report.low_ess,
        "proxy_correlation": report.proxy_correlation,
        "total_weight": hist.total_weight,
        "raw_count": hist.raw_count,
        "underflow_weight": hist.underflow_weight,
        "overflow_weight": hist.overflow_weight,
        "bin_edges": list(hist.bin_edges),
        "weighted_counts": list(hist.weighted_counts),
        "window": {"lo": window.lo, "hi": window.hi, "count": int(len(window.primes))},
    }
    rows = (
        ("bin_lo", "bin_hi", "weighted_count"),
        [
            (hist.bin_edges[i], hist.bin_edges[i + 1], hist.weighted_counts[i])
            for i in range(len(hist.weighted_counts))
        ],
    )
    return results, rows


def _handle_mu_alpha(config):
    p = config.parameters
    window = PrimeWindow.from_bounds(p["lo"], p["hi"])
    values = [(a, mu_alpha(window, a)) for a in p["alphas"]]
    results = {
        "window": {"lo": window.lo, "hi": window.hi, "count": int(len(window.primes))},
        "values": [{"alpha": a, "mu_alpha": v} for a, v in values],
    }
    rows = (("alpha", "mu_alpha"), values)
    return results, rows


def _handle_shift_table(config):
    p = config.parameters
    sels = enumerate_selections(p["k"])
    results = {
        "k": p["k"],
        "count": len(sels),
        "selections": [{"j": s.j, "S": list(s.S), "T": list(s.T)} for s in sels],
    }
    rows = (
        ("j", "S", "T"),
        [(s.j, " ".join(map(str, s.S)) or "-", " ".join(map(str, s.T)) or "-") for s in sels],
    )
    return results, rows


def _handle_recipe_k1(config):
    p = config.parameters
    value = second_moment_recipe_k1(p["t_lo"], p["t_hi"], p["alpha"], p["beta"])
    results = {"recipe_main_term": value, "alpha": p["alpha"], "beta": p["beta"]}
    row = [p["t_lo"], p["t_hi"], p["alpha"], p["beta"], value]
    columns = ["t_lo", "t_hi", "alpha", "beta", "recipe_main_term"]
    if p["quadrature"]:
        quad = second_moment_quadrature_k1(p["t_lo"], p["t_hi"], p["alpha"], p["beta"], p["step"])
        rel = abs(value - quad) / abs(quad)
        results.update({"quadrature": quad, "relative_difference": rel})
        columns += ["quadrature", "relative_difference"]
        row += [quad, rel]
    return results, (tuple(columns), [tuple(row)])


_HANDLERS = {
    "exact-moments": _handle_exact_moments,
    "mc-tilt": _handle_mc_tilt,
    "cue-check": _handle_cue_check,
    "zeta-scan": _handle_zeta_scan,
    "mu-alpha": _handle_mu_alpha,
    "shift-table": _handle_shift_table,
    "recipe-k1": _handle_recipe_k1,
}


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tiltlab",
        description="Tilted CUE statistics and weighted zeta value-distribution experiments",
    )
    parser.add_argument("--version", action="version", version=f"tiltlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--seed", type=int, default=42)

    sp = sub.add_parser("exact-moments", help="closed-form tilted moments of log|Z|")
    sp.add_argument("--n", type=int, required=True, help="matrix size N")
    sp.add_argument("--k", type=float, required=True, help="tilt exponent")
    sp.add_argument("--orders", type=int, default=6, help="highest central moment order")
    common(sp)

    sp = sub.add_parser("mc-tilt", help="Monte Carlo tilted moments via importance sampling")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--orders", type=int, default=4)
    sp.add_argument("--sampler", choices=("cmv", "qr"), default="cmv")
    common(sp)

    sp = sub.add_parser("cue-check", help="rotation-invariance KS check of the CUE sampler")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--trials", type=int, default=10**4)
    sp.add_argument("--phi", type=float, default=1.0)
    common(sp)

    sp = sub.add_parser("zeta-scan", help="weighted value-distribution scan of log|zeta|")
    sp.add_argument("--t", type=float, required=True, help="scan height T (t in [T, 2T])")
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--m", type=int, default=0, help="derivative order in the weight")
    sp.add_argument("--alpha", type=float, default=0.0, help="shift in the weight")
    sp.add_argument("--window-lo", type=float, default=None)
    sp.add_argument("--window-hi", type=float, default=None)
    common(sp)

    sp = sub.add_parser("mu-alpha", help="shifted weighted-mean density over a prime window")
    sp.add_argument("--lo", type=float, required=True)
    sp.add_argument("--hi", type=float, required=True)
    sp.add_argument("--alpha", type=float, action="append", required=True, dest="alphas")
    common(sp)

    sp = sub.add_parser("shift-table", help="selection pairs (S, T) of the moment recipe")
    sp.add_argument("--k", type=int, required=True)
    common(sp)

    sp = sub.add_parser("recipe-k1", help="k=1 shifted second-moment main term")
    sp.add_argument("--t-lo", type=float, required=True)
    sp.add_argument("--t-hi", type=float, required=True)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--quadrature", action="store_true", help="also run the quadrature cross-check")
    sp.add_argument("--step", type=float, default=0.05)
    common(sp)

    return parser


_PARAM_KEYS = {
    "exact-moments": ("n", "k", "orders"),
    "mc-tilt": ("n", "k", "samples", "orders", "sampler"),
    "cue-check": ("n", "trials", "phi"),
    "zeta-scan": ("t", "samples", "k", "m", "alpha", "window_lo", "window_hi"),
    "mu-alpha": ("lo", "hi", "alphas"),
    "shift-table": ("k",),
    "recipe-k1": ("t_lo", "t_hi", "alpha", "beta", "quadrature", "step"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    params = {key: getattr(args, key) for key in _PARAM_KEYS[args.subcommand]}
    try:
        config = RunConfig(
            subcommand=args.subcommand,
            parameters=params,
            output_path=args.out,
            seed=args.seed,
            fmt=args.format,
        )
        return run(config)
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
