"""Order-preserving parallel map capped by REGRET_SYNTH_THREADS."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def thread_count() -> int:
    """REGRET_SYNTH_THREADS clamped to [1, usable CPUs]; 1 if unset or
    not an integer."""
    try:
        n = int(os.environ.get("REGRET_SYNTH_THREADS", "1"))
    except ValueError:
        return 1
    return max(1, min(n, _usable_cpus()))


def parallel_map(fn, items):
    items = list(items)
    n = thread_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as ex:
        return list(ex.map(fn, items))
