"""The arena's cheap hit path: cached views, per-thread counters.

A take that repeats an earlier one (same tag, thread, shape and dtype)
is served from a cached view without the lock.  It must count exactly
what the full path counts, in ``stats()`` and in the telemetry span
counters, and never hand out a view of a buffer the tag has outgrown.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro import obs
from repro.perf import Workspace


def test_a_repeated_take_returns_the_cached_view():
    ws = Workspace()
    a = ws.take("t", (4, 3))
    assert ws.take("t", (4, 3)) is a
    big = ws.take("t", (8, 8))  # regrows: the cached view is stale
    c = ws.take("t", (4, 3))
    assert c is not a and np.shares_memory(c, big)
    assert ws.take("t", (4, 3)) is c
    assert ws.stats()["by_tag"]["t"] == {
        "hits": 3, "misses": 2, "bytes_allocated": (12 + 64) * 4}


def test_counters_survive_reset_and_release():
    ws = Workspace()
    a = ws.take("t", (4,))
    ws.reset_stats()
    assert ws.take("t", (4,)) is not a  # a fresh view, counted afresh
    assert (ws.hits, ws.misses) == (1, 0)
    ws.release()
    b = ws.take("t", (4,))
    assert not np.shares_memory(a, b)
    assert (ws.hits, ws.misses) == (1, 1)


def test_cached_hits_reach_the_span_counters():
    ws = Workspace()
    with obs.collect() as session, obs.span("x"):
        for _ in range(3):
            ws.take("t", (5,))
    (sp,) = [s for s in session.spans if s.name == "x"]
    assert sp.counters["ws_miss"] == 1 and sp.counters["ws_hit"] == 2


def test_threads_sharing_an_arena_lose_no_count():
    ws = Workspace()
    shapes = [(16,), (4, 4), (2, 8), (16,), (32,)]
    n_threads, reps = 8, 400
    errors: list = []

    def work():
        try:
            for i in range(reps):
                for tag in ("a", "b"):
                    out = ws.take(tag, shapes[i % len(shapes)])
                    out[...] = threading.get_ident() % 1000
                    # A view is private to its thread.
                    assert (out == threading.get_ident() % 1000).all()
        except Exception as exc:  # reported on the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    st = ws.stats()
    assert st["takes"] == n_threads * reps * 2
    for tag in ("a", "b"):
        by = st["by_tag"][tag]
        assert by["hits"] + by["misses"] == n_threads * reps
