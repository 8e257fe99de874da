"""The per-subject thread pool that the slice stage and synth share.

One worker per available CPU (the process's CPU affinity, else the CPU
count), never more than there are items, and no setting for it. Results
come back in item order, so what a caller writes from them does not depend
on the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def map_in_order(fn, items: list) -> tuple[list, int]:
    """Return ([fn(item) for item in items], worker count), calling fn on the pool.

    The first exception in item order propagates once the calls already
    running have finished; the pending ones are cancelled.
    """
    workers = max(1, min(_available_cpus(), len(items)))
    executor = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(executor.map(fn, items)), workers
    finally:
        executor.shutdown(cancel_futures=True)
