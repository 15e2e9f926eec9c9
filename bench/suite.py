"""Run every workload in its own fresh process; with --sets 2, the steadiness self-check.

    python3 bench/suite.py --seeds 1 --sets 1        # one run per workload, metrics table
    python3 bench/suite.py --seeds 10 --sets 2       # steadiness self-check

Each run is `bench/run.py --workload W --seed S --seconds T --trace 0`,
with T the run_seconds of BENCHMARK.json; seed 1 also gets one traced run
per set.  Per set, workload and end-to-end metric the suite reports the
median over the seeds and the spread (q3 - q1) / median, as
statistics.quantiles(n=4) gives the quartiles.  It then checks what
BENCHMARK.json promises: every spread within the metric's bound, every
later set's median no worse than the first's by more than the bound, every
run correct, and, for a given seed, the same ESS values, Monte Carlo check
outcomes and computed counts in every run.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACE_SEED = 1  # the seed whose traced run supplies the computed counts


def run_once(workload, seed, seconds, trace):
    """(last-line result, detail dict) of one run.py process."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("detail "))
    return json.loads(lines[-1]), detail


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload and set, seeds 1..N")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))

    problems = []
    medians = {}  # (workload, metric) -> [median per set]
    for workload in (w["name"] for w in spec["workloads"]):
        seen = {}  # (seed, key) -> the value of the seed's first run
        for set_index in range(args.sets):
            values = {name: [] for name in bounds}
            rows = []
            for seed in seeds:
                result, detail = run_once(workload, seed, seconds, 0)
                traced = run_once(workload, seed, seconds, 1)[1] if seed == TRACE_SEED else None
                if not result["correct"]:
                    problems.append(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} checks failed")
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                for run in (detail, traced) if traced else (detail,):
                    for key, value in run["repeat"].items():
                        if seen.setdefault((seed, key), value) != value:
                            problems.append(f"{workload} seed {seed}: {key} differs between runs")
                rows.append((seed, result, detail))
            print(f"\n{workload}, set {set_index + 1}: {len(seeds)} runs of {seconds} s")
            for seed, result, detail in rows:
                m = result["metrics"]
                failed, attempted = detail["check_fail_share"]
                stat_failed, stat_attempted = detail["stat_check_fail_share"]
                print(f"  seed {seed:3d}  " + "  ".join(f"{n} {m[n]['value']:.4f} {m[n]['unit']}" for n in bounds)
                      + f"  ess_per_s {detail['ess_per_s']:.2f} 1/s"
                      + f"  check_fail_share {failed}/{attempted}"
                      + (f"  stat_check_fail_share {stat_failed}/{stat_attempted}" if stat_attempted else ""))
            if len(seeds) < 2:
                continue
            for name, metric in bounds.items():
                med, sp = statistics.median(values[name]), spread(values[name])
                history = medians.setdefault((workload, name), [])
                history.append(med)
                worse = (med - history[0]) / history[0] * (1 if metric["better"] == "lower" else -1)
                verdict = []
                if sp > metric["bound"]:
                    verdict.append(f"spread above bound {metric['bound']}")
                if worse > metric["bound"]:
                    verdict.append(f"median {worse:+.3f} worse than set 1, above bound {metric['bound']}")
                problems += [f"{workload} {name}: {v}" for v in verdict]
                print(f"  {name:12s} median {med:.4f} {metric['unit']:4s} spread {sp:.4f} "
                      f"(bound {metric['bound']}, a third is {metric['bound'] / 3:.4f})"
                      + (f"  vs set 1 {worse:+.4f}" if set_index else "")
                      + ("  FAIL: " + "; ".join(verdict) if verdict else ""))
    print("\nsteadiness self-check: " + ("FAIL\n  " + "\n  ".join(problems) if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
