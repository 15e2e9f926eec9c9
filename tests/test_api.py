import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import tiltlab

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
