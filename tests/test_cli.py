import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tiltlab
from tiltlab import cli, zeta_lab
from tiltlab.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_PRECONDITION, main
from tiltlab.cue import SeedSpec
from tiltlab.zeta_lab import ScanSpec, weighted_scan

from oracles import harmonic


def run_cli(args):
    return main(args)


def test_exact_moments_json(tmp_path):
    out = tmp_path / "exact.json"
    code = run_cli(
        ["exact-moments", "--n", "100", "--k", "1", "--orders", "6", "--out", str(out)]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["config"]["subcommand"] == "exact-moments"
    assert payload["config"]["parameters"]["n"] == 100
    assert payload["results"]["mu_weighted"] == pytest.approx(harmonic(101) - 1.0, abs=1e-10)
    assert payload["results"]["central_moments"][0] == 1.0
    assert payload["warnings"] == []


def test_exact_moments_cost_does_not_grow_with_n(tmp_path):
    out = tmp_path / "exact.json"
    args = ["exact-moments", "--n", "1000000000", "--k", "0.5", "--orders", "12", "--out", str(out)]
    start = time.perf_counter()
    assert run_cli(args) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert json.loads(out.read_text())["results"]["central_moments"][0] == 1.0


def test_exact_moments_runs_above_the_old_tilt_cap(tmp_path):
    # k = 40 is s = 80 in log M_N(s), which an old ceiling of s <= 64 rejected
    out = tmp_path / "exact.json"
    assert run_cli(["exact-moments", "--n", "10", "--k", "40", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["results"]["central_moments"][0] == 1.0


def test_mc_tilt_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["mc-tilt", "--n", "20", "--k", "0", "--samples", "1000", "--seed", "7"]
    assert run_cli(args + ["--out", str(out1)]) == EXIT_OK
    assert run_cli(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_shift_table_csv_rows(tmp_path):
    out = tmp_path / "table.csv"
    assert run_cli(["shift-table", "--k", "2", "--format", "csv", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    header = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    assert len(header) >= 2  # config echo + column names
    assert lines[0].startswith("#")
    assert "seed=" in lines[0]
    assert len(data) == 6


def test_precondition_violation_exit_code(tmp_path):
    code = run_cli(["mc-tilt", "--n", "20", "--k", "0", "--samples", "10"])
    assert code == EXIT_PRECONDITION


def test_zeta_scan_csv_histogram(tmp_path):
    out = tmp_path / "scan.csv"
    code = run_cli(
        [
            "zeta-scan",
            "--t", "5000",
            "--samples", "200",
            "--k", "0",
            "--format", "csv",
            "--out", str(out),
            "--seed", "3",
        ]
    )
    assert code == EXIT_OK
    data = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert len(data) == 80
    cells = data[0].split(",")
    assert len(cells) == 3


def test_zeta_scan_json_mass(tmp_path):
    out = tmp_path / "scan.json"
    code = run_cli(
        ["zeta-scan", "--t", "5000", "--samples", "150", "--out", str(out), "--seed", "5"]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    res = payload["results"]
    mass = sum(res["weighted_counts"]) + res["underflow_weight"] + res["overflow_weight"]
    assert mass == pytest.approx(res["total_weight"], rel=1e-9)


@pytest.mark.parametrize("window", [None, (1.0, 500.0)], ids=["default", "explicit"])
def test_zeta_scan_results_are_the_report(tmp_path, window):
    spec = ScanSpec(T=1e4, samples=300, k=1, m=1, window=window, seed=SeedSpec(9))
    args = ["zeta-scan", "--t", "1e4", "--samples", "300", "--k", "1", "--m", "1", "--seed", "9"]
    if window:
        args += ["--window-lo", "1", "--window-hi", "500"]
    out = tmp_path / "scan.json"
    assert run_cli(args + ["--out", str(out)]) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    report = asdict(weighted_scan(spec))
    assert list(results) == sorted(report)
    for key, value in report.items():
        assert results[key] == value, key


def test_mu_alpha_csv(tmp_path):
    out = tmp_path / "mu.csv"
    code = run_cli(
        [
            "mu-alpha",
            "--lo", "1",
            "--hi", "1000",
            "--alpha", "0.0",
            "--alpha", "0.5",
            "--format", "csv",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(data) == 2
    alpha0 = float(data[0].split(",")[1])
    assert alpha0 == pytest.approx(zeta_lab.mu_alpha((1, 1000), 0.0), abs=1e-12)


def test_recipe_k1_with_quadrature(tmp_path):
    out = tmp_path / "recipe.json"
    code = run_cli(
        [
            "recipe-k1",
            "--t-lo", "500",
            "--t-hi", "900",
            "--quadrature",
            "--step", "0.05",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    res = json.loads(out.read_text())["results"]
    assert "recipe_main_term" in res and "quadrature" in res
    assert res["relative_difference"] < 0.05


def test_cue_check_runs(tmp_path):
    out = tmp_path / "cue.json"
    code = run_cli(
        ["cue-check", "--n", "4", "--trials", "1000", "--out", str(out), "--seed", "2"]
    )
    assert code == EXIT_OK
    res = json.loads(out.read_text())["results"]
    assert res["passed"] is True


def test_low_ess_warning_exits_zero(tmp_path):
    out = tmp_path / "warned.json"
    code = run_cli(
        [
            "mc-tilt",
            "--n", "50",
            "--k", "3",
            "--samples", "1000",
            "--out", str(out),
            "--seed", "11",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["results"]["low_ess"] is True
    assert any("effective sample size" in w for w in payload["warnings"])


@pytest.mark.parametrize(
    "args",
    [
        ["exact-moments", "--n", "2.5", "--k", "1"],
        ["exact-moments", "--n", "2", "--k", "1", "--format", "xml"],
        ["exact-moments", "--k", "1"],
        ["no-such-subcommand"],
    ],
    ids=["unparsable", "bad-choice", "missing", "unknown-subcommand"],
)
def test_argparse_rejections_return_precondition(tmp_path, capsys, args):
    assert run_cli(args + ["--out", str(tmp_path / "result.json")]) == EXIT_PRECONDITION
    assert "error:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_version_returns_ok(capsys):
    assert run_cli(["--version"]) == EXIT_OK
    assert capsys.readouterr().out == f"tiltlab {tiltlab.__version__}\n"


def test_one_parser_serves_every_run_of_the_process(tmp_path):
    # main builds its parser once per process; no run may carry an option over to the
    # next, so each file is the one its argv writes as the first run of a process
    runs = [
        ["mu-alpha", "--lo", "1", "--hi", "1000", "--alpha", "0.01", "--alpha", "0.5"],
        ["mu-alpha", "--lo", "1", "--hi", "1000", "--alpha", "0.25"],
        ["zeta-scan", "--t", "1000", "--samples", "100", "--k", "1"],
    ]

    def written(tag, fresh):
        files = []
        for i, args in enumerate(runs):
            if fresh:
                cli._build_parser.cache_clear()
            out = tmp_path / f"{tag}{i}.json"
            assert run_cli(args + ["--out", str(out)]) == EXIT_OK
            files.append(out.read_bytes())
        return files

    first = written("first", fresh=True)
    builds = cli._build_parser.cache_info().misses
    assert written("reused", fresh=False) == first
    assert cli._build_parser.cache_info().misses == builds
    payload = json.loads(first[1])
    assert payload["config"]["parameters"]["alphas"] == [0.25]
    assert [v["alpha"] for v in payload["results"]["values"]] == [0.25]


def _never_compute(*args, **kwargs):
    raise AssertionError("the run started before --out was checked")


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no-directory", "a-directory"])
def test_unwritable_out_exits_precondition_before_any_work(tmp_path, capsys, monkeypatch, target):
    monkeypatch.setattr(cli, "weighted_central_moments", _never_compute)
    out = str(tmp_path / target)
    assert run_cli(["exact-moments", "--n", "10", "--k", "1", "--out", out]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: --out ") and out in err
    assert os.listdir(tmp_path) == []


def test_failed_write_exits_precondition_without_temp_file(tmp_path, capsys, monkeypatch):
    def full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", full_disk)
    out = tmp_path / "x.json"
    assert run_cli(["exact-moments", "--n", "5", "--k", "1", "--out", str(out)]) == EXIT_PRECONDITION
    assert f"cannot write --out {out}: [Errno 28] No space left on device" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out = tmp_path / "x.json"
    run_cli(["exact-moments", "--n", "5", "--k", "1", "--out", str(out)])
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tiltlab-")]
    assert leftovers == []
    assert out.exists()


def test_cue_check_rejects_empty_matrix(tmp_path):
    out = tmp_path / "cue.json"
    code = run_cli(["cue-check", "--n", "0", "--trials", "1000", "--out", str(out)])
    assert code == EXIT_PRECONDITION
    assert not out.exists()


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_float_argument_exit_code(tmp_path, token):
    out = tmp_path / "recipe.json"
    code = run_cli(
        ["recipe-k1", "--t-lo", "1000", "--t-hi", "2000", f"--alpha={token}", "--out", str(out)]
    )
    assert code == EXIT_PRECONDITION
    assert not out.exists()
    code = run_cli(["mu-alpha", "--lo", "1", "--hi", "100", "--alpha", "0", f"--alpha={token}"])
    assert code == EXIT_PRECONDITION


def test_non_finite_result_exits_numerical_without_writing(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "second_moment_recipe_k1", lambda *args: float("nan"))
    out = tmp_path / "recipe.json"
    code = run_cli(["recipe-k1", "--t-lo", "1000", "--t-hi", "2000", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert os.listdir(tmp_path) == []


def test_non_finite_csv_cell_exits_numerical_without_writing(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "second_moment_recipe_k1", lambda *args: float("nan"))
    out = tmp_path / "recipe.csv"
    args = ["recipe-k1", "--t-lo", "1000", "--t-hi", "2000", "--format", "csv", "--out", str(out)]
    assert run_cli(args) == EXIT_NUMERICAL
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("k", ["0", "1"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_zeta_value_exits_numerical_without_writing(tmp_path, capsys, monkeypatch, k, fmt):
    # at k = 0 the NaN value drops out of every bin; at k >= 1 it is also a NaN weight
    line = zeta_lab.zeta_line

    def one_nan_height(t, m=0):
        rows = line(t, m)
        rows[:, 7] = np.nan
        return rows

    monkeypatch.setattr(zeta_lab, "zeta_line", one_nan_height)
    args = ["zeta-scan", "--t", "1e4", "--samples", "200", "--k", k, "--format", fmt]
    assert run_cli(args + ["--out", str(tmp_path / "scan.out")]) == EXIT_NUMERICAL
    assert "numerical failure: histogram mass" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# bench/run.py's order: numpy, and with it a two-thread OpenBLAS pool, loads before tiltlab
NUMPY_FIRST = "import sys, numpy; from tiltlab import cli; sys.exit(cli.main(sys.argv[1:]))"


def _run_in_subprocess(args, out, threads, numpy_first=False):
    # the BLAS thread variables are dropped (importing tiltlab in this process set them),
    # so the child's BLAS pool is sized by tiltlab alone, or starts at two threads with numpy_first
    src = os.path.dirname(os.path.dirname(os.path.abspath(tiltlab.__file__)))
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARIABLES}
    env.update(TILTLAB_THREADS=threads, PYTHONPATH=src)
    entry = ["-m", "tiltlab.cli"]
    if numpy_first:
        env["OPENBLAS_NUM_THREADS"] = "2"
        entry = ["-c", NUMPY_FIRST]
    done = subprocess.run(
        [sys.executable, *entry, *args, "--out", str(out)],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert done.returncode == EXIT_OK, done.stderr
    return out.read_bytes()


def test_mc_tilt_byte_identical_across_stream_workers(tmp_path):
    # three shards of the Haar stream (sampler cmv), consumed by one or two worker threads
    args = ["mc-tilt", "--n", "20", "--k", "1", "--samples", "10000", "--seed", "3"]
    outputs = [_run_in_subprocess(args, tmp_path / f"mc-{t}.json", t) for t in ("1", "2")]
    assert outputs[0] == outputs[1]


def test_cue_check_byte_identical_across_stream_workers(tmp_path):
    # sixteen QR shards of 128 draws per set, consumed by one or two worker threads
    args = ["cue-check", "--n", "16", "--trials", "2000", "--seed", "3"]
    outputs = [_run_in_subprocess(args, tmp_path / f"cue-{t}.json", t) for t in ("1", "2")]
    assert outputs[0] == outputs[1]


def test_mc_tilt_ess_byte_identical_across_thread_settings_and_import_order(tmp_path):
    # the ESS's sum of squared weights is a dot product of 50,000 doubles, which a
    # two-thread BLAS pool splits; BLAS stays on one thread at any TILTLAB_THREADS,
    # and also when numpy started a two-thread pool before tiltlab loaded
    args = ["mc-tilt", "--n", "20", "--k", "1", "--samples", "50000", "--seed", "1"]
    outputs = [_run_in_subprocess(args, tmp_path / f"mc-{t}.json", t) for t in ("1", "2")]
    outputs.append(_run_in_subprocess(args, tmp_path / "mc-numpy-first.json", "2", numpy_first=True))
    assert outputs[0] == outputs[1] == outputs[2]


def test_recipe_k1_quadrature_byte_identical_across_blas_threads(tmp_path):
    # the quadrature's main sums are complex matrix products, one per chunk of terms,
    # for one progression at equal shifts and two otherwise; BLAS stays on one thread
    # whatever TILTLAB_THREADS says, so the setting must not change a byte
    for shifts in ([], ["--alpha", "0.3", "--beta", "0.1"]):
        args = ["recipe-k1", "--t-lo", "500", "--t-hi", "600", "--quadrature", *shifts]
        outputs = [_run_in_subprocess(args, tmp_path / f"recipe-{len(shifts)}-{t}.json", t) for t in ("1", "2")]
        assert outputs[0] == outputs[1]


def test_recipe_k1_quadrature_byte_identical_with_numpy_imported_first(tmp_path):
    # the matrix products run on one BLAS thread also when numpy's pool started at two
    args = ["recipe-k1", "--t-lo", "500", "--t-hi", "600", "--quadrature"]
    outputs = [
        _run_in_subprocess(args, tmp_path / "recipe-1.json", "1"),
        _run_in_subprocess(args, tmp_path / "recipe-numpy-first.json", "2", numpy_first=True),
    ]
    assert outputs[0] == outputs[1]


def test_zeta_scan_byte_identical_across_rs_threads(tmp_path):
    # about 50 Riemann-Siegel blocks at 5e7: serial, then pipelined with the next
    # block's prime rows built on a worker thread
    args = ["zeta-scan", "--t", "5e7", "--samples", "2000", "--k", "0"]
    outputs = [_run_in_subprocess(args, tmp_path / f"scan-{t}.json", t) for t in ("1", "2")]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("lo", ["1", "123456.5"])
def test_mu_alpha_byte_identical_across_sieve_threads(tmp_path, lo):
    # 8 sieve segments: serial, then each sieved on a worker thread while the caller sums the one before;
    # below hi = RECURSION_WIDTH^4 (16,777,216) no window is wide enough to be recursed instead
    args = ["mu-alpha", "--lo", lo, "--hi", "1.6e7", "--alpha", "0.01", "--alpha", "-0.5", "--alpha", "0"]
    outputs = [_run_in_subprocess(args, tmp_path / f"mu-{t}.json", t) for t in ("1", "2")]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("step", ["0", "-0.05"])
def test_recipe_k1_rejects_non_positive_step(tmp_path, capsys, step):
    out = tmp_path / "recipe.json"
    args = ["recipe-k1", "--t-lo", "500", "--t-hi", "600", "--quadrature", f"--step={step}"]
    assert run_cli(args + ["--out", str(out)]) == EXIT_PRECONDITION
    assert "step" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_recipe_k1_rejects_step_over_the_node_cap(tmp_path, capsys):
    # 9,950,001 nodes at --step 1e-6, refused before any table is built
    out = tmp_path / "recipe.json"
    args = ["recipe-k1", "--t-lo", "50", "--t-hi", "10000", "--quadrature", "--step", "1e-6"]
    assert run_cli(args + ["--out", str(out)]) == EXIT_PRECONDITION
    assert "step" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("t", ["300", "1500"])
def test_zeta_scan_empty_default_window_exits_precondition(tmp_path, capsys, t):
    # (log T, T^0.3] holds no prime below T = 656.14 nor in [1096.6, 2960.1)
    out = tmp_path / "scan.json"
    args = ["zeta-scan", "--t", t, "--samples", "2000", "--k", "1", "--out", str(out)]
    assert run_cli(args) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert f"T = {t}" in err and "empty" in err and "--window-lo/--window-hi" in err
    assert os.listdir(tmp_path) == []
    # the same height with an explicit window runs
    window = ["--window-lo", "1", "--window-hi", "100"]
    assert run_cli(args + window) == EXIT_OK
    assert json.loads(out.read_text())["results"]["window"]["count"] == 25


@pytest.mark.parametrize("k", ["0", "1"])
def test_zeta_scan_prime_free_window_exits_precondition(tmp_path, capsys, k):
    out = tmp_path / "scan.json"
    args = ["zeta-scan", "--t", "5000", "--samples", "200", "--k", k, "--window-lo", "8", "--window-hi", "10"]
    assert run_cli(args + ["--out", str(out)]) == EXIT_PRECONDITION
    assert "(8, 10] holds no prime" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_mu_alpha_reports_the_prime_count_cap(tmp_path):
    out = tmp_path / "mu.json"
    assert run_cli(["mu-alpha", "--lo", "1", "--hi", "1e10", "--alpha", "0", "--out", str(out)]) == EXIT_OK
    window = json.loads(out.read_text())["results"]["window"]
    assert window == {"lo": 1.0, "hi": 179424673.0, "count": 10**7, "truncated": True}
    assert run_cli(["mu-alpha", "--lo", "1", "--hi", "1000", "--alpha", "0", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["results"]["window"]["truncated"] is False


@pytest.mark.parametrize("hi", ["1e13", "1e300"])
def test_mu_alpha_rejects_a_window_above_the_sieve_limit(tmp_path, capsys, hi):
    out = tmp_path / "mu.json"
    assert run_cli(["mu-alpha", "--lo", "1", "--hi", hi, "--alpha", "0", "--out", str(out)]) == EXIT_PRECONDITION
    assert "sieve limit" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def _never_sieve(*args, **kwargs):
    raise AssertionError("the sieve ran before the arguments were checked")


@pytest.mark.parametrize(
    "args, text",
    [
        (["mu-alpha", "--lo=-5", "--hi", "1e10", "--alpha", "0"], "(-5.0, 10000000000.0]"),
        (["mu-alpha", "--lo", "1", "--hi", "1e10", "--alpha", "2"], "got [2.0]"),
        (["zeta-scan", "--t", "1e300", "--samples", "100"], "T = 1e+300"),
        (["zeta-scan", "--t", "6e7", "--samples", "100", "--window-lo", "1", "--window-hi", "1e10"], "T = 6e+07"),
        # half a window is refused, not replaced by the default window
        (["zeta-scan", "--t", "1e5", "--samples", "200", "--k", "1", "--window-lo", "1"], "--window-lo and --window-hi"),
        (["zeta-scan", "--t", "1e5", "--samples", "200", "--window-hi", "1000"], "--window-lo and --window-hi"),
    ],
)
def test_arguments_are_checked_before_the_sieve(tmp_path, monkeypatch, capsys, args, text):
    # every prime pass sieves through the segments
    monkeypatch.setattr(zeta_lab, "_prime_segments", _never_sieve)
    out = tmp_path / "result.json"
    assert run_cli(args + ["--out", str(out)]) == EXIT_PRECONDITION
    assert text in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")


@pytest.mark.parametrize(
    "target, args",
    [
        ("tilted_moments_mc", ["mc-tilt", "--n", "20", "--k", "1", "--samples", "1000000000000"]),
        ("weighted_scan", ["zeta-scan", "--t", "1e5", "--samples", "1000000000000", "--k", "1"]),
    ],
)
def test_out_of_memory_exits_precondition_without_writing(
    tmp_path, monkeypatch, capsys, target, args
):
    monkeypatch.setattr(cli, target, _out_of_memory)
    out = tmp_path / "result.json"
    assert run_cli(args + ["--out", str(out)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: out of memory: Unable to allocate")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def _exit_code_contract(args, allowed=(EXIT_OK, EXIT_PRECONDITION)):
    """Exit 0 with a strict JSON file, or another allowed code with no file; anything else raises."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "result.json")
        code = run_cli(args + ["--out", out])
        assert code in allowed
        if code == EXIT_OK:
            with open(out) as handle:
                json.loads(handle.read(), parse_constant=_reject_constant)
        else:
            assert os.listdir(tmp) == []


_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 1e300, sys.float_info.max])


@settings(max_examples=150, deadline=None)
@given(
    lo=st.floats(-10.0, 2e6) | _SPECIAL_FLOATS,
    hi=st.floats(-10.0, 1e6) | _SPECIAL_FLOATS.filter(lambda x: not 1e6 < x < math.inf),
    alphas=st.lists(st.floats(-1.5, 1.5) | _SPECIAL_FLOATS, min_size=1, max_size=3),
)
@example(lo=1.0, hi=100.0, alphas=[sys.float_info.max])  # alpha log p overflows: cos(inf) is NaN
def test_mu_alpha_exit_codes(lo, hi, alphas):
    args = ["mu-alpha", f"--lo={lo!r}", f"--hi={hi!r}", *(f"--alpha={a!r}" for a in alphas)]
    _exit_code_contract(args)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(-5, 10**4) | st.sampled_from([2**53, 2**53 + 1, 2**63, 10**30]),
    k=st.floats(-5.0, 50.0) | st.floats(1e3, 1e5) | _SPECIAL_FLOATS,
    orders=st.integers(-1, 13),
)
def test_exact_moments_exit_codes(n, k, orders):
    _exit_code_contract(["exact-moments", f"--n={n}", f"--k={k!r}", f"--orders={orders}"])


@settings(max_examples=150, deadline=None)
@given(
    t=st.floats(656.2, 5e7)
    | st.floats(5e7 - 1.0, 5e7 + 1.0)
    | st.sampled_from([10.0, 999.0, 1000.0, 1500.0])
    | _SPECIAL_FLOATS,
    samples=st.integers(100, 300),
    k=st.integers(0, 3) | st.sampled_from([-1, 50]),
    m=st.integers(0, 4) | st.sampled_from([-1, 5]),
    alpha=st.floats(-0.999, 0.999) | st.sampled_from([-1.0, 1.0]) | _SPECIAL_FLOATS,
    window=st.none()
    | st.tuples(st.floats(0.0, 30.0), st.floats(30.0, 500.0))
    | st.tuples(st.floats(-2.0, 60.0), st.floats(-2.0, 60.0)),
)
@example(t=1e5, samples=300, k=50, m=4, alpha=0.5, window=None)  # the mean weight passes the float range
def test_zeta_scan_exit_codes(t, samples, k, m, alpha, window):
    args = ["zeta-scan", f"--t={t!r}", f"--samples={samples}", f"--k={k}", f"--m={m}", f"--alpha={alpha!r}"]
    if window is not None:
        args += [f"--window-lo={window[0]!r}", f"--window-hi={window[1]!r}"]
    _exit_code_contract(args)


@pytest.mark.parametrize("setting", ["0", "-2", "1.5", "abc"])
def test_zeta_scan_rejects_a_bad_thread_setting(tmp_path, capsys, monkeypatch, setting):
    # a multi-block Riemann-Siegel scan reads the thread rule of the sharded streams
    monkeypatch.setenv("TILTLAB_THREADS", setting)
    args = ["zeta-scan", "--t", "5e7", "--samples", "200", "--k", "0", "--out", str(tmp_path / "scan.json")]
    assert run_cli(args) == EXIT_PRECONDITION
    assert f"TILTLAB_THREADS must be a positive integer, got {setting!r}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# one small run of each subcommand
ONE_RUN_EACH = [
    ["exact-moments", "--n", "10", "--k", "1"],
    ["mc-tilt", "--n", "10", "--k", "1", "--samples", "1000"],
    ["cue-check", "--n", "4", "--trials", "1000"],
    ["zeta-scan", "--t", "1e4", "--samples", "200"],
    ["mu-alpha", "--lo", "1", "--hi", "100", "--alpha", "0"],
    ["shift-table", "--k", "2"],
    ["recipe-k1", "--t-lo", "1000", "--t-hi", "1100"],
]


@pytest.mark.parametrize("args", ONE_RUN_EACH, ids=lambda args: args[0])
def test_every_subcommand_rejects_a_bad_thread_setting(tmp_path, capsys, monkeypatch, args):
    # the thread rule is read once, before dispatch, also by subcommands that start no pool
    for setting in ("0", "abc"):
        monkeypatch.setenv("TILTLAB_THREADS", setting)
        assert run_cli(args + ["--out", str(tmp_path / "result.json")]) == EXIT_PRECONDITION
        assert f"TILTLAB_THREADS must be a positive integer, got {setting!r}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args", ONE_RUN_EACH, ids=lambda args: args[0])
def test_every_subcommand_rejects_an_out_of_range_seed(tmp_path, capsys, args):
    # the seed is checked before dispatch, also for subcommands that draw no random number
    for seed in ("-1", str(2**64)):
        assert run_cli(args + ["--seed", seed, "--out", str(tmp_path / "result.json")]) == EXIT_PRECONDITION
        assert "seed must be a 64-bit unsigned integer" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


# subcommand -> (JSON results keys, CSV column header), as each subcommand wrote them
# when its handler still copied the report fields one by one; the handlers that now
# write a report dataclass whole would show a field added or dropped here
OUTPUT_SCHEMA = {
    "exact-moments": ("central_moments cumulant_sums log_mn mu_weighted", "order,central_moment"),
    "mc-tilt": (
        "central_moments ess low_ess mean_weight mean_weight_se sample_count standard_errors"
        " standardized standardized_errors weighted_mean",
        "order,central_moment,standard_error",
    ),
    "cue-check": ("passed phi statistic threshold trials", "statistic,threshold,passed"),
    "zeta-scan": (
        "bin_edges central_moments ess low_ess overflow_weight proxy_correlation raw_count"
        " standard_errors total_weight underflow_weight weighted_counts weighted_mean window",
        "bin_lo,bin_hi,weighted_count",
    ),
    "mu-alpha": ("values window", "alpha,mu_alpha"),
    "shift-table": ("count k selections", "j,S,T"),
    "recipe-k1": ("alpha beta recipe_main_term", "t_lo,t_hi,alpha,beta,recipe_main_term"),
    "recipe-k1 --quadrature": (
        "alpha beta quadrature recipe_main_term relative_difference",
        "t_lo,t_hi,alpha,beta,recipe_main_term,quadrature,relative_difference",
    ),
}


def _schema_key(args):
    return args[0] + " --quadrature" * ("--quadrature" in args)


@pytest.mark.parametrize("args", ONE_RUN_EACH + [ONE_RUN_EACH[-1] + ["--quadrature"]], ids=_schema_key)
def test_output_schema_is_pinned(tmp_path, args):
    keys, columns = OUTPUT_SCHEMA[_schema_key(args)]
    assert run_cli(args + ["--out", str(tmp_path / "result.json")]) == EXIT_OK
    assert sorted(json.loads((tmp_path / "result.json").read_text())["results"]) == keys.split()
    assert run_cli(args + ["--format", "csv", "--out", str(tmp_path / "result.csv")]) == EXIT_OK
    header = [line for line in (tmp_path / "result.csv").read_text().splitlines() if line.startswith("# ")]
    assert header[-1] == "# " + columns


def _sized_exit_code_contract(args):
    """_exit_code_contract with exit 3 allowed and one worker thread; argparse's rejections return 2 too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("TILTLAB_THREADS", "1")
        _exit_code_contract(args, allowed=(EXIT_OK, EXIT_PRECONDITION, EXIT_NUMERICAL))


_BAD_SIZES = st.sampled_from(["0", "-3", "nan", "inf", "-inf", "2.5", "0.0", "1e3"])


@st.composite
def _cli_fields(draw, valid, bad):
    """A dict of valid fields, with at most one replaced by a value from its bad strategy."""
    fields = draw(st.fixed_dictionaries(valid))
    spoilt = draw(st.sampled_from([None, *bad]))
    if spoilt is not None:
        fields[spoilt] = draw(bad[spoilt])
    return fields


@settings(max_examples=80, deadline=None)
@given(
    _cli_fields(
        valid={
            "n": st.integers(1, 20).map(str),
            "k": (st.floats(0.0, 20.0) | st.floats(1e3, 1e12)).map(repr),
            "samples": st.integers(1000, 3000).map(str),
            "orders": st.integers(0, 8).map(str),
            "sampler": st.sampled_from(["cmv", "qr"]),
        },
        bad={
            "n": _BAD_SIZES,
            "k": (st.floats(-5.0, -1e-300) | _SPECIAL_FLOATS).map(repr),
            "samples": _BAD_SIZES | st.integers(-5, 999).map(str),
            "orders": st.sampled_from(["-1", "9", "2.5", "nan"]),
        },
    )
)
@example({"n": "20", "k": "1e10", "samples": "1000", "orders": "4", "sampler": "cmv"})  # one draw holds the weight
@example({"n": "1", "k": "2316651.0", "samples": "1000", "orders": "8", "sampler": "cmv"})  # m_2^4 underflows
def test_mc_tilt_exit_codes(fields):
    _sized_exit_code_contract(["mc-tilt", *(f"--{name}={value}" for name, value in fields.items())])


def test_mc_tilt_underflowing_variance_exits_numerical(tmp_path, monkeypatch):
    # m_2 > 0 but m_2^4 underflows to 0.0: non-finite standardized moments, not a ZeroDivisionError
    monkeypatch.setenv("TILTLAB_THREADS", "1")
    args = ["mc-tilt", "--n", "1", "--k", "2316651", "--samples", "1000", "--orders", "8", "--sampler", "cmv"]
    assert run_cli(args + ["--out", str(tmp_path / "mc.json")]) == EXIT_NUMERICAL
    assert os.listdir(tmp_path) == []


@settings(max_examples=60, deadline=None)
@given(
    _cli_fields(
        valid={
            "n": st.integers(1, 20).map(str),
            "trials": st.integers(1000, 3000).map(str),
            "phi": (st.floats(-10.0, 10.0) | _SPECIAL_FLOATS.filter(math.isfinite)).map(repr),
        },
        bad={
            "n": _BAD_SIZES,
            "trials": _BAD_SIZES | st.integers(-5, 999).map(str),
            "phi": _SPECIAL_FLOATS.map(repr),
        },
    )
)
def test_cue_check_exit_codes(fields):
    _sized_exit_code_contract(["cue-check", *(f"--{name}={value}" for name, value in fields.items())])


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-3, 10).map(str) | st.sampled_from(["nan", "inf", "2.5", "1e3", "-0"]))
def test_shift_table_exit_codes(k):
    _sized_exit_code_contract(["shift-table", f"--k={k}"])


_SHIFTS = st.floats(-0.999, 0.999)
_BAD_SHIFTS = st.sampled_from([1.0, -1.0, 1.5, -7.0]) | _SPECIAL_FLOATS


@settings(max_examples=80, deadline=None)
@given(
    fields=_cli_fields(
        valid={
            "t-lo": st.floats(50.0, 9980.0) | st.floats(50.0, 1e8),
            "width": st.floats(1e-3, 20.0),  # the quadrature holds at most 4001 nodes
            "alpha": _SHIFTS,
            "beta": _SHIFTS,
            "step": st.floats(0.01, 1.0),
        },
        bad={
            "t-lo": st.floats(-10.0, 49.99) | _SPECIAL_FLOATS,
            "width": st.sampled_from([0.0, -1.0, math.nan, math.inf]),
            "alpha": _BAD_SHIFTS,
            "beta": _BAD_SHIFTS,
            "step": st.sampled_from([0.0, -0.0, -0.05, math.nan, math.inf]),
        },
    ),
    quadrature=st.booleans(),
)
@example(fields={"t-lo": 1000.0, "width": 1000.0, "alpha": 0.7, "beta": 0.3, "step": 0.05}, quadrature=False)
def test_recipe_k1_exit_codes(fields, quadrature):  # the example's alpha + beta = 1 is a removable 0/0
    t_hi = fields.pop("width") + fields["t-lo"]
    args = ["recipe-k1", f"--t-hi={t_hi!r}", *(f"--{name}={value!r}" for name, value in fields.items())]
    _sized_exit_code_contract(args + ["--quadrature"] * quadrature)
