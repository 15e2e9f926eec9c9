import json
import math
import os
import subprocess
import sys

import pytest

import tiltlab
from tiltlab import cli
from tiltlab.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_PRECONDITION, main

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
    from tiltlab.zeta_lab import PrimeWindow, mertens_l

    assert alpha0 == pytest.approx(mertens_l(PrimeWindow.from_bounds(1, 1000)), abs=1e-12)


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


def test_mc_tilt_byte_identical_across_stream_workers(tmp_path):
    # three shards of the cmv stream, consumed by one or two worker threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(tiltlab.__file__)))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"mc-{threads}.json"
        env = dict(os.environ, TILTLAB_THREADS=threads, PYTHONPATH=src)
        args = ["mc-tilt", "--n", "20", "--k", "1", "--samples", "10000", "--seed", "3"]
        done = subprocess.run(
            [sys.executable, "-m", "tiltlab.cli", *args, "--out", str(out)],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert done.returncode == EXIT_OK, done.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
