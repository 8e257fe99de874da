"""The worker pool: the calling thread is one of the workers, results come
back in item order, and every thread is joined, also on failure."""

import threading
import time

import pytest

from mridecomp import pool


def test_caller_and_one_thread_share_the_items_at_two_cpus(monkeypatch):
    monkeypatch.setattr(pool, "_available_cpus", lambda: 2)
    caller = threading.get_ident()
    # each worker's first item waits for the other's, so both take one
    both_started = threading.Barrier(2, timeout=5)
    idents = []

    def square(x):
        if threading.get_ident() not in idents:
            idents.append(threading.get_ident())
            both_started.wait()
        time.sleep(0.001)
        return x * x

    assert pool.map_in_order(square, list(range(12))) == ([x * x for x in range(12)], 2)
    assert len(idents) == 2 and caller in idents


def test_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(pool, "_available_cpus", lambda: 1)
    before = threading.active_count()
    seen = []

    def record(x):
        seen.append((threading.get_ident(), threading.active_count()))
        return -x

    assert pool.map_in_order(record, [1, 2, 3]) == ([-1, -2, -3], 1)
    assert seen == [(threading.get_ident(), before)] * 3


@pytest.mark.parametrize(
    "caller_raises, thread_raises",
    [(ValueError, ValueError), (KeyboardInterrupt, None)],
)
def test_failure_in_callers_share_waits_for_running_items(monkeypatch, caller_raises, thread_raises):
    """The caller's item raises while the thread's item still sleeps: the
    exception propagates only after that item returns, no further item
    starts, the lowest-index exception wins and the thread is joined."""
    monkeypatch.setattr(pool, "_available_cpus", lambda: 2)
    caller = threading.get_ident()
    thread_started = threading.Event()
    started, returned = [], []

    def fn(x):
        started.append(x)
        if threading.get_ident() == caller:
            assert thread_started.wait(timeout=5)
            raise caller_raises(x)
        thread_started.set()
        time.sleep(0.2)
        returned.append(x)
        if thread_raises is not None:
            raise thread_raises(x)
        return x

    threads_before = threading.enumerate()
    with pytest.raises((caller_raises, ValueError)) as excinfo:
        pool.map_in_order(fn, list(range(6)))
    assert sorted(started) == [0, 1]
    assert len(returned) == 1
    if thread_raises is None:
        assert excinfo.type is caller_raises
    else:
        assert excinfo.value.args == (0,)
    assert threading.enumerate() == threads_before
