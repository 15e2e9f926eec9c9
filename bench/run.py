"""tiltlab benchmark: run one workload in this process and print its metrics.

    python3 bench/run.py --workload rmt-stream --seed 1 --seconds 20 --trace 0

Closed loop, one client: the workload's experiments run back to back
through tiltlab.cli.main, imported from the checked-out src/ (the package
need not be installed), with BLAS pools capped at nproc via
TILTLAB_THREADS.  Passes repeat until the next one would end after
--seconds, with at least three.  Every pass is checked (workloads.py).
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of layers.py.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, ess_values, parse_strict, route_checks, stat_checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_PASSES = 3  # the median of three passes rejects one slowed by a noisy neighbour
SETUP_PROBES = (3, 1)  # before the first pass, after each pass: spread over the whole run
SETUP_PROBE = "import time, tiltlab.cli; print(repr(time.perf_counter()))"
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def measure_setup(env, count):
    """Seconds from spawning a fresh interpreter to tiltlab.cli imported, `count` times."""
    times = []
    for _ in range(count):
        start = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout) - start)
    return times


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without leaving it."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata(np, seed, nproc):
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    caps = ("TILTLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": nproc,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_caps": {var: os.environ.get(var) for var in caps},
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        "git_commit": git_commit(),
        "seed": seed,
    }


def _cpu_seconds():
    """User + system CPU time of this process, all threads (BLAS pools included)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Workload:
    """One workload's experiments, their result files and the checks of every pass."""

    def __init__(self, name, seed, outdir, cli, tracer):
        self.name = name
        self.cli = cli
        self.tracer = tracer
        self.plan = [
            (label, argv + ["--seed", str(seed), "--out", str(outdir / f"{label}.json")])
            for label, argv in WORKLOADS[name]
        ]
        self.reference = {}  # label -> result bytes of the first pass
        self.checks = []  # (pass, check, ok, detail): output checks, these gate `correct`
        self.stat_checks = []  # seed-dependent MC-vs-exact and KS comparisons
        self.repeats = None  # ESS values and stat-check outcomes of the first checked pass
        self.traced_spans = []  # one span list per traced pass
        self.passes = 0

    def _call(self, argv, traced):
        try:
            return self.tracer.call_main(self.cli.main, argv) if traced else self.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:  # a crash is a failed experiment for the checks, not the end of the run
            traceback.print_exc()
            return "exception"

    def run_pass(self, traced):
        """Run every experiment once and check the outputs; returns (wall s, cpu s) of the experiments."""
        for _label, argv in self.plan:
            Path(argv[-1]).unlink(missing_ok=True)
        if traced:
            self.tracer.install()
        try:
            c0 = _cpu_seconds()
            t0 = time.perf_counter()
            codes = [self._call(argv, traced) for _label, argv in self.plan]
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - c0
        finally:
            if traced:
                self.tracer.uninstall()
                self.traced_spans.append(self.tracer.take())
        self._check(codes)
        self.passes += 1
        return wall, cpu

    def _check(self, codes):
        def record(name, ok, detail, into=self.checks):
            into.append((self.passes, name, bool(ok), detail))

        results = {}
        for (label, argv), code in zip(self.plan, codes):
            record(f"{label} exit 0", code == 0, f"exit {code}")
            try:
                data = Path(argv[-1]).read_bytes()
                results[label] = parse_strict(data.decode())
            except (OSError, ValueError) as exc:
                record(f"{label} strict JSON", False, str(exc))
                continue
            record(f"{label} strict JSON", True, "parsed")
            if label in self.reference:
                same = data == self.reference[label]
                record(f"{label} byte-identical to pass 0", same, "same bytes" if same else "bytes differ")
            else:
                self.reference[label] = data
        if len(results) == len(self.plan):
            try:
                for name, ok, detail in route_checks(self.name, results):
                    record(name, ok, detail)
                stats = stat_checks(self.name, results)
                repeats = {"ess": ess_values(results), "stat_outcomes": [bool(ok) for _, ok, _ in stats]}
            except (KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
                record("independent routes", False, f"unexpected result layout: {exc!r}")
                return
            for name, ok, detail in stats:
                record(name, ok, detail, into=self.stat_checks)
            if self.repeats is None:
                self.repeats = repeats
            else:
                for key, value in repeats.items():
                    first = self.repeats[key]
                    record(f"{key} repeats exactly", value == first, f"{value} vs {first}")


def schedule(workload, seconds, trace, probe_setup):
    """Passes back to back until the next would end after `seconds`.

    Returns ([(traced, wall, cpu)] per pass, setup probe times).
    """
    kinds = (False, True) if trace else (False,)
    passes = []
    start = time.perf_counter()
    setup = probe_setup(SETUP_PROBES[0])
    while True:
        traced = kinds[len(passes) % len(kinds)]
        wall, cpu = workload.run_pass(traced)
        passes.append((traced, wall, cpu))
        setup += probe_setup(SETUP_PROBES[1])
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + wall > seconds:
            return passes, setup


def _tail(values):
    """(p, value) for the highest of p50/p90/p99/p99.9 with ten samples beyond it, else None."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if len(values) * (1.0 - p / 100.0) >= 10:
            best = (p, statistics.quantiles(values, n=1000)[int(p * 10) - 1])
    return best


def _share(checks):
    failed = sum(1 for c in checks if not c[2])
    return failed, len(checks)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tiltlab" / "cli.py").is_file():
        print(f"no tiltlab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    os.environ.setdefault("TILTLAB_THREADS", str(nproc))  # read by tiltlab.cli before numpy loads
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    sys.path.insert(0, str(SRC))
    import numpy as np

    from tiltlab import cli

    from layers import COMPUTED_COUNTS, PER_LAYER, Tracer, layer_metrics

    OUT.mkdir(exist_ok=True)
    rundir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    rundir.mkdir()
    try:
        workload = Workload(args.workload, args.seed, rundir, cli, Tracer())
        passes, setup = schedule(workload, args.seconds, args.trace, lambda n: measure_setup(env, n))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_pass = [layer_metrics(spans) for spans in workload.traced_spans]
    for index, counts in enumerate(per_pass[1:], 1):
        same = all(counts[name] == per_pass[0][name] for name in COMPUTED_COUNTS)
        workload.checks.append((index, "computed counts repeat exactly", same, "traced pass vs the first"))
    walls = [w for traced, w, _ in passes if not traced]
    cpus = [c for traced, _, c in passes if not traced]
    wall = statistics.median(walls)
    ess = (workload.repeats or {}).get("ess", [])
    ess_sum = sum(ess)
    failed, attempted = _share(workload.checks)
    stat_failed, stat_attempted = _share(workload.stat_checks)
    q1, _, q3 = statistics.quantiles(walls, n=4)
    tail = _tail(walls)

    print("meta " + json.dumps(metadata(np, args.seed, nproc), sort_keys=True))
    for index, name, ok, detail in workload.checks:
        if not ok:
            print(f"check FAILED in pass {index}: {name}: {detail}")
    for index, name, ok, detail in workload.stat_checks:
        if not ok:
            print(f"seed-dependent comparison outside its band in pass {index}: {name}: {detail}")
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} untraced, {len(passes) - len(walls)} traced passes")
    print(f"  setup_s          {statistics.median(setup):.4f} s    median of {len(setup)} fresh imports")
    print(f"  wall_s           {wall:.4f} s    q1 {q1:.4f} q3 {q3:.4f} n {len(walls)}"
          + (f" p{tail[0]:g} {tail[1]:.4f}" if tail else ", too few passes for a tail percentile"))
    print(f"  cpu_s            {statistics.median(cpus):.4f} s")
    print(f"  peak_rss_mb      {peak_rss_mb:.1f} MiB")
    print(f"  ess_per_s        {ess_sum / wall:.4f} 1/s  ess sum {ess_sum:.6g} over {len(ess)} estimates")
    print(f"  check_fail_share {failed / attempted:.4f} ratio  {failed} failed of {attempted} output checks")
    if stat_attempted:
        print(f"  stat_check_fail_share {stat_failed / stat_attempted:.4f} ratio  "
              f"{stat_failed} of {stat_attempted} seed-dependent 3-SE / KS comparisons outside their band")

    if args.trace:
        layer = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        layer.update({name: per_pass[0][name] for name in COMPUTED_COUNTS})
        traced_wall = statistics.median(w for traced, w, _ in passes if traced)
        layer["ess_per_s"] = ess_sum / wall
        layer["stat_check_fail_share"] = stat_failed / stat_attempted if stat_attempted else 0.0
        layer["trace_overhead_share"] = (traced_wall - wall) / wall
        self_sum = sum(layer[name] for name, (unit, _) in PER_LAYER.items() if unit == "s")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        trace_path.unlink(missing_ok=True)
        for number, spans in enumerate(workload.traced_spans):
            Tracer.dump(trace_path, spans, workload=args.workload, seed=args.seed, traced_pass=number)
        print(f"  traced pass {traced_wall:.4f} s, span self times sum to {self_sum:.4f} s; "
              f"spans in {trace_path.relative_to(ROOT)}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": wall,
                  "cpu_s": statistics.median(cpus), "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    computed = {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}
    print("detail " + json.dumps({
        "walls": walls, "ess_per_s": ess_sum / wall, "repeat": {**(workload.repeats or {}), **computed},
        "check_fail_share": [failed, attempted], "stat_check_fail_share": [stat_failed, stat_attempted],
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
