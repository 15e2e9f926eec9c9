"""The one worker-thread rule shared by the sharded streams and the Riemann-Siegel main sums."""

from __future__ import annotations

import os

__all__ = ["thread_count"]


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
