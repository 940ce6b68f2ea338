"""Workspace arena: shape/dtype-keyed scratch-buffer reuse for hot loops.

The SBR drivers, the precision kernels, and the TSQR tree allocate the
same handful of temporaries over and over — one fresh ``np.empty`` per
panel iteration, per EC split, per chunk.  At n=1024 each of those is a
megabyte-scale allocation whose cost is not ``malloc`` but the kernel
page faults on first touch, paid again on every iteration.  A
:class:`Workspace` takes those allocations out of the loops: each call
site *takes* a buffer under a semantic tag and gets the same backing
memory back on the next iteration whenever its capacity suffices, so a
tag allocates once per call (see *Lifetime*) instead of once per
iteration.  The loops still make small temporaries of their own.
Whether a repeated call faults its buffers' pages in again is up to the
C allocator: glibc returns a freed heap top to the kernel once it is
large enough, and how large it gets is set by the call's n×n transients
(docs/performance.md, "Page faults per call").

Contract
--------
- ``take(tag, shape, dtype)`` returns a **writable, uninitialized** array
  view of exactly ``shape``.  The caller owns it until its next ``take``
  of the same tag — the arena never clears or copies it.
- Buffers are keyed by ``(tag, thread)``: two threads taking the same tag
  get distinct backing buffers, so an arena shared across threads is
  safe (each thread's reuse stream is private).
- Capacity-based reuse: a tag's buffer is reallocated only when the
  requested element count grows (or the dtype changes); smaller takes
  reshape a prefix of the existing buffer.
- ``shape`` is a tuple (it keys the view cache below).

Hits
----
A hit costs about a dict lookup.  The view a take returns is cached
under ``(tag, thread, shape, dtype)``, so a take that repeats an earlier
one returns the same view object without the lock, the size product or
a reshape; it only bumps its counter, and calls into telemetry only while
a sink is installed.  Regrowing a tag's buffer drops that tag's cached
views with it.  The counters are kept per ``(tag, thread)``, so a
lock-free hit never races another thread's count; :meth:`~Workspace.stats`
sums them per tag.

Accounting
----------
Every take is counted as a *hit* (buffer reused, through a cached view
or not) or a *miss* (a real allocation happened).  :class:`NullWorkspace` is the "arena off" control:
the same interface, but every take allocates — and is counted — so the
on/off allocation ratio in the manifest's ``alloc`` line measures what
the arena saves.  While a telemetry span is active, each take also
bumps a ``ws_hit``/``ws_miss`` counter on the innermost span, giving
per-phase allocation counts in run manifests.

Lifetime
--------
An arena lives for one driver call.  :func:`call_arena` is how a driver
gets one: an arena the driver resolved itself (``workspace=None`` or
``True``) is emptied when the call returns — the stage-1 operand store
(``OA``, the block's ``W``/``Y``/``OAW``, their EC ``hi``/``lo`` splits
and transposed twins) is several times the band it produces, and a
result that kept it would hold it for as long as the result lives.  The
emptied arena stays on the result, so its ``stats()`` still feed the
manifest's ``alloc`` line.  An engine without an arena of its own is lent
the call's arena and loses it again on return, so a reused engine never
pins, or counts into, an earlier call's arena.  An arena the caller
passed in is left as it is: the caller shares it across calls or stages
and decides when to drop it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from math import prod
from threading import get_ident

import numpy as np

from ..obs import spans as obs

__all__ = ["Workspace", "NullWorkspace", "call_arena", "resolve_workspace"]


class Workspace:
    """Reusable scratch-buffer arena with allocation accounting."""

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, int], np.ndarray] = {}
        self._lock = threading.Lock()
        # (tag, thread) -> [hits, misses, bytes]: one slot per thread, so
        # a lock-free hit never races another thread's count.
        self._stats: dict[tuple[str, int], list[int]] = {}
        # (tag, thread, shape, dtype) -> (view, slot): the array a hit
        # returns, made once per buffer, with its counter slot.
        self._views: dict[tuple, tuple[np.ndarray, list[int]]] = {}

    def take(self, tag: str, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """Return a writable uninitialized array of ``shape`` under ``tag``.

        Contents are arbitrary (possibly the previous take's data); the
        caller must fully overwrite or explicitly zero what it reads.  A
        take the arena has served before (same tag, thread, shape and
        dtype, buffer not regrown since) returns the same view object.
        """
        tid = get_ident()
        cached = self._views.get((tag, tid, shape, dtype))
        if cached is None:
            return self._take(tag, tid, shape, dtype)
        cached[1][0] += 1
        if obs._active is not None:
            obs.ws_take(tag, True, 0)
        return cached[0]

    def _take(self, tag, tid, shape, dtype) -> np.ndarray:
        """:meth:`take` when no view is cached: find or grow the buffer."""
        dt = np.dtype(dtype)
        size = prod(shape)
        if size == 0:
            return np.empty(shape, dtype=dt)
        key = (tag, tid)
        with self._lock:
            slot = self._stats.get(key)
            if slot is None:
                slot = self._stats[key] = [0, 0, 0]
            buf = self._buffers.get(key)
            hit = buf is not None and buf.dtype == dt and buf.size >= size
            if hit:
                slot[0] += 1
            else:
                if buf is not None:
                    # The old buffer's views are stale: drop them with it.
                    for vkey in [v for v in self._views if v[:2] == key]:
                        del self._views[vkey]
                buf = self._buffers[key] = np.empty(size, dtype=dt)
                slot[1] += 1
                slot[2] += int(buf.nbytes)
            out = buf[:size].reshape(shape)
            self._views[(tag, tid, shape, dtype)] = (out, slot)
        if obs._active is not None:
            obs.ws_take(tag, hit, 0 if hit else int(buf.nbytes))
        return out

    @property
    def hits(self) -> int:
        return sum(s[0] for s in self._stats.values())

    @property
    def misses(self) -> int:
        return sum(s[1] for s in self._stats.values())

    @property
    def bytes_allocated(self) -> int:
        return sum(s[2] for s in self._stats.values())

    def stats(self) -> dict:
        """Allocation accounting (the manifest ``alloc`` line body)."""
        by_tag: dict[str, list[int]] = {}
        for (tag, _), s in list(self._stats.items()):
            acc = by_tag.setdefault(tag, [0, 0, 0])
            for j in range(3):
                acc[j] += s[j]
        return {
            "arena": type(self).__name__ != "NullWorkspace",
            "takes": self.hits + self.misses,
            "hits": self.hits,
            "misses": self.misses,
            "bytes_allocated": self.bytes_allocated,
            "by_tag": {
                tag: {"hits": s[0], "misses": s[1], "bytes_allocated": s[2]}
                for tag, s in sorted(by_tag.items())
            },
        }

    def reset_stats(self) -> None:
        """Clear the counters (buffers are kept)."""
        with self._lock:
            self._stats.clear()
            self._views.clear()  # they hold the cleared slots

    def release(self) -> None:
        """Free every buffer (the counters are kept)."""
        with self._lock:
            self._buffers.clear()
            self._views.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {len(self._buffers)} buffers, "
            f"{self.hits} hits / {self.misses} misses>"
        )


class NullWorkspace(Workspace):
    """Arena-off control: every take allocates fresh (and is counted).

    Used by the ``workspace=False`` driver path and the bench suite's
    on/off comparison — hot-loop code stays identical, only the reuse is
    disabled, so the counter delta is exactly the arena's effect.
    """

    def take(self, tag: str, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        out = np.empty(shape, dtype=dtype)
        if out.size:
            with self._lock:
                slot = self._stats.setdefault((tag, get_ident()), [0, 0, 0])
                slot[1] += 1
                slot[2] += int(out.nbytes)
            obs.ws_take(tag, False, int(out.nbytes))
        return out


def resolve_workspace(workspace) -> Workspace:
    """Resolve a driver's ``workspace=`` argument to an arena instance.

    ``None``/``True`` → a fresh :class:`Workspace`; ``False`` → a
    :class:`NullWorkspace` (allocation-counting, no reuse); an existing
    arena passes through (lets a caller share one across stages and read
    its stats afterwards).
    """
    if isinstance(workspace, Workspace):
        return workspace
    if workspace is None or workspace is True:
        return Workspace()
    if workspace is False:
        return NullWorkspace()
    raise TypeError(
        f"workspace must be a Workspace, bool, or None, got {type(workspace).__name__}"
    )


@contextmanager
def call_arena(workspace, engine=None):
    """The arena of one driver call (module docstring, *Lifetime*).

    Resolves ``workspace`` (:func:`resolve_workspace`) and yields it,
    lent to ``engine`` if that has no arena.  On exit, normal or not, the
    engine's loan ends and an arena resolved here is emptied.
    """
    ws = resolve_workspace(workspace)
    lend = engine is not None and getattr(engine, "workspace", False) is None
    if lend:
        engine.workspace = ws
    try:
        yield ws
    finally:
        if lend:
            engine.workspace = None
        if ws is not workspace:
            ws.release()
