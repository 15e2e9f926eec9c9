import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import tiltlab
from tiltlab import threads, zeta_lab
from tiltlab.cli import EXIT_NUMERICAL, EXIT_PRECONDITION, main


def _traced_stage(log):
    def stage(item):
        log.append(("make", item, threading.current_thread()))
        time.sleep(0.002 * (item % 3))  # uneven stages: a fast one may finish before a slow one
        return item * item

    return stage


@pytest.mark.parametrize("setting", ["1", "2", "3"])
def test_results_come_back_in_input_order_one_ahead_at_most(monkeypatch, setting):
    monkeypatch.setenv("TILTLAB_THREADS", setting)
    log = []
    items = list(range(12))
    for item, result in zip(items, threads.one_ahead(_traced_stage(log), items)):
        assert result == item * item
        time.sleep(0.005)  # a slow caller: a worker free to run ahead would start item + 2 here
        log.append(("use", item, threading.current_thread()))
    assert [entry[1] for entry in log if entry[0] == "make"] == items
    # item i + 2 is never started before the caller is done with item i
    for position, (kind, item, _thread) in enumerate(log):
        if kind == "make":
            used = sum(1 for entry in log[:position] if entry[0] == "use")
            assert used >= item - 1
    workers = {thread for kind, _item, thread in log if kind == "make"}
    assert (workers == {threading.main_thread()}) == (setting == "1")


def test_a_single_item_or_none_runs_inline(monkeypatch):
    monkeypatch.setenv("TILTLAB_THREADS", "4")
    monkeypatch.setattr(threading.Thread, "start", _no_thread)
    log = []
    assert list(threads.one_ahead(_traced_stage(log), [5])) == [25]
    assert list(threads.one_ahead(_traced_stage(log), [])) == []


def _no_thread(self):
    raise AssertionError("a thread was started")


def test_one_thread_never_starts_a_thread(monkeypatch):
    monkeypatch.setenv("TILTLAB_THREADS", "1")
    monkeypatch.setattr(threading.Thread, "start", _no_thread)
    log = []
    assert list(threads.one_ahead(_traced_stage(log), range(8))) == [i * i for i in range(8)]
    assert {thread for _kind, _item, thread in log} == {threading.main_thread()}
    # a many-segment mu_alpha pass and a multi-block Riemann-Siegel sum run inline too,
    # the pass with the sums of one segment
    whole = zeta_lab.mu_alpha((1, 1e5), 0.0)
    monkeypatch.setattr(zeta_lab, "SIEVE_SEGMENT", 1000)
    assert zeta_lab.mu_alpha((1, 1e5), 0.0) == whole
    assert zeta_lab.zeta_line(np.linspace(5e7, 1e8 - 1.0, 200), 0).shape == (1, 200)  # six blocks


def test_a_bad_thread_setting_raises_at_the_call(monkeypatch):
    monkeypatch.setenv("TILTLAB_THREADS", "0")
    with pytest.raises(ValueError, match="TILTLAB_THREADS must be a positive integer, got '0'"):
        threads.one_ahead(_traced_stage([]), [1, 2])


@pytest.mark.parametrize("setting", ["1", "2"])
def test_an_exception_in_a_stage_reaches_the_caller_at_its_item(monkeypatch, setting):
    monkeypatch.setenv("TILTLAB_THREADS", setting)
    raised_on = []

    def stage(item):
        if item == 3:
            raised_on.append(threading.current_thread())
            raise RuntimeError("stage 3 failed")
        return item

    got = []
    with pytest.raises(RuntimeError, match="stage 3 failed"):
        for result in threads.one_ahead(stage, list(range(6))):
            got.append(result)
    assert got == [0, 1, 2]
    assert (raised_on == [threading.main_thread()]) == (setting == "1")


@pytest.mark.parametrize(
    "error, code, text",
    [
        (RuntimeError("segment sieve failed"), EXIT_NUMERICAL, "numerical failure: segment sieve failed"),
        (MemoryError("Unable to allocate"), EXIT_PRECONDITION, "precondition violated: out of memory"),
    ],
)
def test_a_worker_failure_in_mu_alpha_maps_to_the_cli_exit_code(tmp_path, monkeypatch, capsys, error, code, text):
    monkeypatch.setenv("TILTLAB_THREADS", "2")
    monkeypatch.setattr(zeta_lab, "SIEVE_SEGMENT", 1000)
    raised_on = []

    def failing_one_ahead(stage, items):
        def failing(item):
            if item == items[3]:
                raised_on.append(threading.current_thread())
                raise error
            return stage(item)

        return threads.one_ahead(failing, items)

    monkeypatch.setattr(zeta_lab, "one_ahead", failing_one_ahead)
    out = tmp_path / "mu.json"
    assert main(["mu-alpha", "--lo", "1", "--hi", "1e5", "--alpha", "0.1", "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(text)
    assert raised_on and raised_on[0] is not threading.main_thread()
    assert list(tmp_path.iterdir()) == []


# numpy first, as bench/run.py, pytest and notebooks load it; then one CLI call.
# Prints the exit code and each mapped OpenBLAS library's pool size before and after
# the call, read through the library's own get_num_threads symbol.
_BLAS_POOL_PROBE = """
import ctypes, json, sys
import numpy
from tiltlab import cli

GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")

def pool_sizes():
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line.lower()})
    sizes = []
    for path in paths:
        library = ctypes.CDLL(path)
        getter = next((getattr(library, name) for name in GETTERS if hasattr(library, name)), None)
        if getter is not None:
            sizes.append(getter())
    return sizes

before = pool_sizes()
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "before": before, "after": pool_sizes()}))
"""


def test_cli_pins_a_blas_pool_that_numpy_started_first(tmp_path):
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc/self/maps")
    src = os.path.dirname(os.path.dirname(os.path.abspath(tiltlab.__file__)))
    argv = ["exact-moments", "--n", "10", "--k", "1", "--out", str(tmp_path / "exact.json")]
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_POOL_PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2", TILTLAB_THREADS="2"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    if not report["before"]:
        pytest.skip("no OpenBLAS library with a get_num_threads symbol is mapped")
    if max(report["before"]) < 2:
        pytest.skip("OpenBLAS started with one thread: nothing to pin")
    assert report["code"] == 0
    assert report["after"] == [1] * len(report["before"])
