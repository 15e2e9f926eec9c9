import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import tiltlab
from tiltlab.cue import SeedSpec, log_char_poly_stream, qr_log_char_poly_stream, rotation_invariance_check
from tiltlab.estimator import tilted_moments_mc
from tiltlab.zeta_lab import ScanSpec

MODULES = sorted(info.name for info in pkgutil.iter_modules(tiltlab.__path__))


@pytest.mark.parametrize("module", ["tiltlab"] + [f"tiltlab.{name}" for name in MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_single_shard_stream_leaves_thread_pool_unimported():
    # the pool is imported on first use only: it would add about 0.7 MiB to every CLI process;
    # and the runtime is numpy-only: the special functions never reach for scipy or mpmath
    src = os.path.dirname(os.path.dirname(os.path.abspath(tiltlab.__file__)))
    probe = (
        "import sys, tiltlab.cli\n"
        "from tiltlab.cue import SeedSpec, qr_log_char_poly_stream\n"
        "from tiltlab.rmt_exact import TiltSpec, weighted_central_moments\n"
        "qr_log_char_poly_stream(4, 10, SeedSpec(1))\n"
        "weighted_central_moments(TiltSpec(30, 1.5, 6))\n"
        "print([m for m in ('concurrent.futures', 'scipy', 'mpmath') if m in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_thread_setting_caps_blas_before_numpy_starts():
    # OpenBLAS sizes its pool when numpy is first imported, which importing tiltlab does
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if not os.path.isdir("/proc/self/task") or cpus < 2:
        pytest.skip("needs /proc/self/task and at least two CPUs")
    src = os.path.dirname(os.path.dirname(os.path.abspath(tiltlab.__file__)))
    caps = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in caps}
    done = subprocess.run(
        [sys.executable, "-c", "import os, tiltlab.cli; print(len(os.listdir('/proc/self/task')))"],
        env=dict(env, PYTHONPATH=src, TILTLAB_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"


@pytest.mark.parametrize(
    "name, call",
    [
        ("n", lambda: log_char_poly_stream(5.5, 10, SeedSpec(1))),
        ("count", lambda: log_char_poly_stream(5, 10.5, SeedSpec(1))),
        ("n", lambda: qr_log_char_poly_stream(4.5, 10, SeedSpec(1))),
        ("count", lambda: qr_log_char_poly_stream(4, 10.0, SeedSpec(1))),
        ("n", lambda: rotation_invariance_check(16.5, 1000, SeedSpec(1))),
        ("trials", lambda: rotation_invariance_check(16, 1000.5, SeedSpec(1))),
        ("n", lambda: tilted_moments_mc(10.5, 1, 4, 2000, SeedSpec(1))),
        ("samples", lambda: tilted_moments_mc(10, 1, 4, 2000.5, SeedSpec(1))),
        ("samples", lambda: ScanSpec(T=1e4, samples=100.5)),
    ],
)
def test_non_integer_sizes_rejected_up_front(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()
