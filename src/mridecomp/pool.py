"""The per-subject worker pool that the slice stage and synth share.

The workers are the calling thread plus one thread per further available
CPU (the process's CPU affinity, else the CPU count), never more workers
than there are items, and no setting for it. The caller runs a share of the
items itself because glibc gives each thread its own malloc arena, so the
buffers a pool thread frees stay resident where the caller's later stages
cannot reuse them, while those the caller frees go back to the main arena
that those stages allocate from. Results come back in item order, so what a
caller writes from them does not depend on the worker count.
"""

from __future__ import annotations

import os
import threading


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def map_in_order(fn, items: list) -> tuple[list, int]:
    """Return ([fn(item) for item in items], worker count).

    Every worker, the calling thread included, takes the next unclaimed item
    in item order until none are left; on one worker no thread is started.
    Once a call raises, no further item starts, and the exception of the
    lowest-index item that raised propagates after the calls already running
    have finished. Every started thread is joined before this returns or
    raises, also when the caller's own share is interrupted.
    """
    workers = max(1, min(_available_cpus(), len(items)))
    results = [None] * len(items)
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    unclaimed = iter(range(len(items)))

    def work():
        while True:
            with lock:
                i = None if failures else next(unclaimed, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised by the caller below
                with lock:
                    failures[i] = exc

    threads = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        with lock:
            unclaimed = iter(())  # the caller is leaving: nothing more starts
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results, workers
