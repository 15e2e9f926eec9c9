"""One worker-thread rule for every pool, the one-ahead pipeline built on it, and one BLAS thread.

tiltlab's BLAS calls are small and its parallelism is its own pools, while an idle
OpenBLAS worker spins for CPU after each call it shared: so BLAS gets one thread.
Importing tiltlab defaults the BLAS thread variables to 1, and `pin_blas` pins a
pool that numpy started first (Linux and OpenBLAS only; a no-op elsewhere).
"""

from __future__ import annotations

import ctypes
import functools
import os

__all__ = ["one_ahead", "pin_blas", "thread_count"]

# numpy 2.x wheels' prefixed 64-bit-integer build first, then the plain builds
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")


@functools.cache
def pin_blas():
    """Set each OpenBLAS library mapped into this process to one thread, once per process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line.lower()}
        libraries = [ctypes.CDLL(path, os.RTLD_NOLOAD) for path in paths]  # the loaded instances, never new ones
    except OSError:
        return
    for library in libraries:
        setter = next((getattr(library, name) for name in _BLAS_SETTERS if hasattr(library, name)), None)
        if setter is not None:
            setter(1)


def thread_count(tasks):
    """Threads for `tasks` pieces of work: TILTLAB_THREADS, else the CPUs this process may use.

    Never more than `tasks`, so at most that many pieces' temporaries are
    alive at once.  A set TILTLAB_THREADS that is not a positive integer
    raises ValueError naming the variable.
    """
    setting = os.environ.get("TILTLAB_THREADS")
    if setting:
        try:
            workers = int(setting)
        except ValueError:  # "abc", "1.5": reported below like "0"
            workers = 0
        if workers < 1:
            raise ValueError(f"TILTLAB_THREADS must be a positive integer, got {setting!r}")
    elif hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without CPU affinity
        workers = os.cpu_count() or 1
    return min(workers, tasks)


def one_ahead(stage, items):
    """An iterator over stage(item) for each item of the sequence `items`, in order.

    When the thread rule gives two or more threads for len(items) tasks,
    one worker thread runs stage(items[i + 1]) while the caller uses
    stage(items[i]); otherwise every call runs inline, when its result is
    drawn, and no thread starts.  Either way the calls run one at a time
    and in order, so the results do not depend on the thread count, and
    an exception raised by a call is raised to the caller at its item.
    The thread rule is read here, so a bad setting raises at once.
    """
    if thread_count(len(items)) < 2:
        return map(stage, items)
    return _pipelined(stage, items)


def _pipelined(stage, items):
    # imported on first use: it would add about 0.7 MiB to every CLI process
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        following = pool.submit(stage, items[0])
        for item in items[1:]:
            ready = following  # the last item's result is let go before the next call starts
            following = pool.submit(stage, item)
            yield ready.result()
        yield following.result()
