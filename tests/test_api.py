import ast
import importlib
import inspect
import json
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
BENCH_LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "layers.py")

# small runs that together cover every subcommand; each writes its own --out file, one as CSV
REACHABILITY_RUNS = (
    ["exact-moments", "--n", "30", "--k", "1.5", "--orders", "6"],
    ["mc-tilt", "--n", "10", "--k", "1", "--samples", "5000"],  # two shards on the pool
    ["mc-tilt", "--n", "6", "--k", "0.5", "--samples", "1000", "--sampler", "qr", "--format", "csv"],
    ["cue-check", "--n", "4", "--trials", "1000"],
    ["zeta-scan", "--t", "5e7", "--samples", "200", "--k", "0", "--window-lo", "1", "--window-hi", "100"],
    ["zeta-scan", "--t", "700", "--samples", "200", "--k", "1", "--m", "1"],
    ["zeta-scan", "--t", "700", "--samples", "200", "--k", "1", "--alpha", "0.05"],
    ["mu-alpha", "--lo", "1", "--hi", "3e6", "--alpha", "0", "--alpha", "0.5"],  # two sieve segments
    ["mu-alpha", "--lo", "1", "--hi", "2e7", "--alpha", "0", "--alpha", "0.5"],  # the prime-sum recursion
    ["shift-table", "--k", "2"],
    ["recipe-k1", "--t-lo", "1000", "--t-hi", "1100", "--quadrature"],
    ["recipe-k1", "--t-lo", "1000", "--t-hi", "1100", "--alpha", "0.3", "--beta", "0.1"],
)
# module.qualname -> why no CLI run enters it
UNREACHED_BY_CLI = {
    "cli._json_default": "a guard: json.dumps calls it only for numpy values; every handler passes plain ones",
    "shifts.ShiftTuple.__post_init__": "no subcommand builds a ShiftTuple yet; the k = 2 recipe will (ROADMAP item 14)",
    "shifts.swap_shifts": "kept for the k = 2 recipe main term (ROADMAP item 14)",
}
# profiles every thread from before the package is imported, so the tables built at import count
_REACHABILITY_PROBE = """
import json, os, sys, threading
package, runs = sys.argv[1], json.loads(sys.argv[2])
entered = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        entered.add(os.path.splitext(os.path.basename(code.co_filename))[0] + "." + code.co_qualname)

threading.setprofile(profile)
sys.setprofile(profile)
from tiltlab.cli import main
codes = [main(argv) for argv in runs]
sys.setprofile(None)
threading.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def _defined_functions(path, module):
    """module.qualname of every def in the file, as the interpreter names its code object."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name
                yield from walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    with open(path) as handle:
        return {f"{module}.{name}" for name in walk(ast.parse(handle.read()), "")}


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
        "from tiltlab.rmt_exact import weighted_central_moments\n"
        "qr_log_char_poly_stream(4, 10, SeedSpec(1))\n"
        "weighted_central_moments(30, 1.5, 6)\n"
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


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11")
def test_every_function_has_a_cli_caller(tmp_path):
    # no function in src/ that only the tests reach: one traced process runs every
    # subcommand, with two threads so that the pools and the one-ahead worker start
    package = os.path.dirname(os.path.abspath(tiltlab.__file__))
    defined = set()
    for name in ["__init__"] + MODULES:
        defined |= _defined_functions(os.path.join(package, f"{name}.py"), name)
    runs = [argv + ["--out", str(tmp_path / f"run{i}.out")] for i, argv in enumerate(REACHABILITY_RUNS)]
    done = subprocess.run(
        [sys.executable, "-c", _REACHABILITY_PROBE, package, json.dumps(runs)],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(package), TILTLAB_THREADS="2"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0] * len(runs)
    assert sorted(defined - set(result["entered"])) == sorted(UNREACHED_BY_CLI)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_thread_setting_caps_blas_before_numpy_starts(threads):
    # OpenBLAS sizes its pool when numpy is first imported, which importing tiltlab does;
    # BLAS gets one thread at any TILTLAB_THREADS, so no BLAS worker starts
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if not os.path.isdir("/proc/self/task") or cpus < 2:
        pytest.skip("needs /proc/self/task and at least two CPUs")
    src = os.path.dirname(os.path.dirname(os.path.abspath(tiltlab.__file__)))
    caps = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in caps}
    done = subprocess.run(
        [sys.executable, "-c", "import os, tiltlab.cli; print(len(os.listdir('/proc/self/task')))"],
        env=dict(env, PYTHONPATH=src, TILTLAB_THREADS=threads),
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
        ("n", lambda: tilted_moments_mc(10.5, 1, 4, 2000, SeedSpec(1), sampler="split")),
        ("samples", lambda: tilted_moments_mc(10, 1, 4, 2000.5, SeedSpec(1), sampler="split")),
        ("samples", lambda: ScanSpec(T=1e4, samples=100.5)),
    ],
)
def test_non_integer_sizes_rejected_up_front(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


def _counter_arguments(tree):
    """{function name: the parameter names its _arg(bound, name) calls read}, from a parsed module.

    A name is a string literal, or the loop variable of a comprehension over a tuple of them.
    """
    out = {}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        loops = {
            gen.target.id: gen.iter.elts
            for gen in ast.walk(fn)
            if isinstance(gen, ast.comprehension) and isinstance(gen.target, ast.Name)
        }
        names = set()
        for call in ast.walk(fn):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_arg":
                key = call.args[1]
                names |= {ast.literal_eval(k) for k in (loops[key.id] if isinstance(key, ast.Name) else [key])}
        out[fn.name] = names
    return out


def test_bench_counters_read_parameters_the_package_keeps():
    # the bench tracer binds the arguments of each entry point it counts and reads them by
    # name: a parameter dropped or renamed here would crash every traced pass
    with open(BENCH_LAYERS) as handle:
        tree = ast.parse(handle.read())
    counters = _counter_arguments(tree)
    (rows,) = [
        node.value.elts
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "ENTRY_POINTS"
    ]
    checked = set()
    for row in rows:
        if isinstance(row, ast.Starred):  # generated rows: each must have no counter
            assert ast.literal_eval(row.value.elt.elts[3]) is None
            continue
        module, attr, _span, counter = row.elts
        fn = getattr(importlib.import_module(f"tiltlab.{module.value}"), attr.value, None)
        if isinstance(counter, ast.Name) and fn is not None:  # the tracer skips a missing name
            missing = counters[counter.id] - set(inspect.signature(fn).parameters)
            assert not missing, f"{module.value}.{attr.value} lost {sorted(missing)}, read by {counter.id}"
            checked.add(attr.value)
    assert {
        "zeta_em_many",
        "zeta_rs_many",
        "log_char_poly_stream",
        "rotation_invariance_check",
        "second_moment_quadrature_k1",
    } <= checked


@pytest.mark.parametrize("module", MODULES)
def test_one_euler_maclaurin_remainder(module):
    # zeta_eval's one remainder serves zeta's tail, the prime sums' power sums and the
    # recipe's regular part: no other module reads the Bernoulli numbers (special builds
    # them), and zeta_lab and shifts take E(z) = expm1(z)/z from zeta_eval, not their own
    with open(os.path.join(os.path.dirname(tiltlab.__file__), f"{module}.py")) as handle:
        nodes = list(ast.walk(ast.parse(handle.read())))
    names = {getattr(node, field, None) for node in nodes for field in ("id", "attr", "name", "asname")}
    if module not in ("special", "zeta_eval"):
        assert "BERNOULLI_EVEN" not in names
    if module in ("zeta_lab", "shifts"):
        assert not names & {"expm1", "sinc"}
