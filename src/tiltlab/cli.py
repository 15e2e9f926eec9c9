"""Command-line front end: one subcommand per experiment, CSV/JSON output.

`main` checks the seed and every float argument, then hands the parsed
arguments to the subcommand's handler, which calls the library directly;
a subcommand with a report dataclass writes its fields as the results
block.  Outputs are written atomically (temp file + rename) and contain a
full config echo, so a result file always identifies the run that
produced it.  Identical config + seed gives byte-identical files.  Exit codes:
0 success (numerical warnings still exit 0), 2 precondition violation
(including an argument argparse rejects, a NaN or infinite float
argument, an --out that cannot be written, and a size whose arrays do
not fit in memory), 3 numerical failure
(including a non-finite value in a result, which is never written).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .cue import SeedSpec, rotation_invariance_check
from .estimator import tilted_moments_mc
from .rmt_exact import weighted_central_moments
from .shifts import enumerate_selections, second_moment_quadrature_k1, second_moment_recipe_k1
from .threads import pin_blas, thread_count
from .zeta_lab import ScanSpec, mu_alpha, weighted_scan

__all__ = ["main"]

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3


def _atomic_write(path, data: str):
    """Write data to path by a temp file and a rename; an OSError leaves no temp file and raises ValueError."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tiltlab-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc}") from None


def _check_out(path):
    """Refuse, before any work, an --out path whose directory is missing or which is a directory."""
    if os.path.isdir(path):
        raise ValueError(f"--out {path} is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ValueError(f"--out {path}: its directory does not exist")


def _emit(echo: dict, results: dict, rows, warnings_list, output_path):
    """rows: (column_names, list of value tuples) for CSV mode."""
    if echo["format"] == "json":
        payload = {"config": echo, "results": results, "warnings": warnings_list}
        try:
            text = json.dumps(
                payload, sort_keys=True, indent=2, default=_json_default, allow_nan=False
            )
        except ValueError as exc:  # a NaN or infinity would make the file invalid JSON
            raise FloatingPointError(f"non-finite result: {exc}") from None
        text += "\n"
    else:
        header_kv = " ".join(f"{k}={v}" for k, v in sorted(echo["parameters"].items()))
        lines = [f"# tiltlab v{__version__} {echo['subcommand']} seed={echo['seed']} {header_kv}".rstrip()]
        for w in warnings_list:
            lines.append(f"# warning: {w}")
        columns, data_rows = rows
        lines.append("# " + ",".join(columns))
        for row in data_rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
    if output_path:
        _atomic_write(output_path, text)
    else:
        sys.stdout.write(text)


def _csv_cell(v):
    if isinstance(v, float):
        if not math.isfinite(v):
            raise FloatingPointError(f"non-finite result: {v}")
        return repr(float(v))  # a numpy float's own repr names its type
    return str(v)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# --------------------------------------------------------------------------
# handlers
# --------------------------------------------------------------------------


def _handle_exact_moments(p, seed):
    report = weighted_central_moments(p["n"], p["k"], p["orders"])
    rows = (
        ("order", "central_moment"),
        [(n, m) for n, m in enumerate(report.central_moments)],
    )
    return asdict(report), rows


def _handle_mc_tilt(p, seed):
    report = tilted_moments_mc(p["n"], p["k"], p["orders"], p["samples"], SeedSpec(seed), sampler=p["sampler"])
    rows = (
        ("order", "central_moment", "standard_error"),
        [
            (n, report.central_moments[n], report.standard_errors[n])
            for n in range(len(report.central_moments))
        ],
    )
    return asdict(report), rows


def _handle_cue_check(p, seed):
    check = rotation_invariance_check(p["n"], p["trials"], SeedSpec(seed), phi=p["phi"])
    rows = (
        ("statistic", "threshold", "passed"),
        [(check.statistic, check.threshold, int(check.passed))],
    )
    return asdict(check), rows


def _handle_zeta_scan(p, seed):
    bounds = (p["window_lo"], p["window_hi"])
    if bounds.count(None) == 1:
        raise ValueError("give both --window-lo and --window-hi, or neither for the default window")
    spec = ScanSpec(  # checks every field before it sieves a window
        T=p["t"],
        samples=p["samples"],
        k=p["k"],
        m=p["m"],
        alpha=p["alpha"],
        window=None if None in bounds else bounds,
        seed=SeedSpec(seed),
    )
    report = weighted_scan(spec)
    edges = report.bin_edges
    rows = (("bin_lo", "bin_hi", "weighted_count"), list(zip(edges, edges[1:], report.weighted_counts)))
    return asdict(report), rows


def _handle_mu_alpha(p, seed):
    window = {}
    values = list(zip(p["alphas"], mu_alpha((p["lo"], p["hi"]), p["alphas"], extent=window).tolist()))
    results = {
        "window": window,
        "values": [{"alpha": a, "mu_alpha": v} for a, v in values],
    }
    rows = (("alpha", "mu_alpha"), values)
    return results, rows


def _handle_shift_table(p, seed):
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


def _handle_recipe_k1(p, seed):
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


@functools.cache
def _build_parser():
    """The one parser of the process: parse_args starts every run from its defaults, so `main` reuses it."""
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
    sp.add_argument(
        "--sampler",
        choices=("cmv", "qr"),
        default="cmv",
        help="Haar draws: cmv, the O(N) splitting stream at tilt 0; qr, dense QR",
    )
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
    sp.add_argument("--alpha", type=float, default=0.0, help="shift, |alpha| < 1")
    sp.add_argument("--beta", type=float, default=0.0, help="shift, |beta| < 1")
    sp.add_argument("--quadrature", action="store_true", help="also run the quadrature cross-check")
    sp.add_argument("--step", type=float, default=0.05)
    common(sp)

    return parser


def main(argv=None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse has printed its message: 2 for a rejection, 0 for --help or --version
        return exc.code
    subcommand, out, fmt, seed = (args.pop(key) for key in ("subcommand", "out", "format", "seed"))
    try:
        if out:
            _check_out(out)
        thread_count(1)  # a bad TILTLAB_THREADS fails every subcommand alike, before any work
        pin_blas()  # one BLAS thread even where numpy loaded before tiltlab
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        for name, value in args.items():
            for x in value if isinstance(value, list) else [value]:
                if isinstance(x, float) and not math.isfinite(x):
                    raise ValueError(f"{name} must be finite, got {x}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results, rows = _HANDLERS[subcommand](args, seed)
        warnings_list = [str(w.message) for w in caught]
        echo = {"subcommand": subcommand, "seed": seed, "format": fmt, "version": __version__, "parameters": args}
        _emit(echo, results, rows, warnings_list, out)
        summary = f"tiltlab v{__version__} {subcommand} seed={seed} -> {out or 'stdout'}"
        for w in warnings_list:
            summary += f" [warning: {w}]"
        print(summary, file=sys.stderr)
        return EXIT_OK
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError as exc:
        print(f"precondition violated: out of memory: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
