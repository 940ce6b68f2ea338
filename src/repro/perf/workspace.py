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

Accounting
----------
Every take is counted as a *hit* (buffer reused) or a *miss* (a real
allocation happened).  :class:`NullWorkspace` is the "arena off" control:
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

import numpy as np

from ..obs import spans as obs

__all__ = ["Workspace", "NullWorkspace", "call_arena", "resolve_workspace"]


class Workspace:
    """Reusable scratch-buffer arena with allocation accounting."""

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, int], np.ndarray] = {}
        self._lock = threading.Lock()
        self._stats: dict[str, list[int]] = {}  # tag -> [hits, misses, bytes]

    def take(self, tag: str, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """Return a writable uninitialized array of ``shape`` under ``tag``.

        Contents are arbitrary (possibly the previous take's data); the
        caller must fully overwrite or explicitly zero what it reads.
        """
        dtype = np.dtype(dtype)
        size = 1
        for dim in shape:
            size *= int(dim)
        if size == 0:
            return np.empty(shape, dtype=dtype)
        key = (tag, threading.get_ident())
        with self._lock:
            buf = self._buffers.get(key)
            hit = buf is not None and buf.dtype == dtype and buf.size >= size
            if hit:
                self._count(tag, hit=True)
                out = buf[:size].reshape(shape)
            else:
                buf = np.empty(size, dtype=dtype)
                self._buffers[key] = buf
                self._count(tag, hit=False, nbytes=int(buf.nbytes))
                out = buf.reshape(shape)
        obs.ws_take(tag, hit, 0 if hit else int(buf.nbytes))
        return out

    def _count(self, tag: str, *, hit: bool, nbytes: int = 0) -> None:
        slot = self._stats.setdefault(tag, [0, 0, 0])
        if hit:
            slot[0] += 1
        else:
            slot[1] += 1
            slot[2] += nbytes

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
        return {
            "arena": type(self).__name__ != "NullWorkspace",
            "takes": self.hits + self.misses,
            "hits": self.hits,
            "misses": self.misses,
            "bytes_allocated": self.bytes_allocated,
            "by_tag": {
                tag: {"hits": s[0], "misses": s[1], "bytes_allocated": s[2]}
                for tag, s in sorted(self._stats.items())
            },
        }

    def reset_stats(self) -> None:
        """Clear the counters (buffers are kept)."""
        with self._lock:
            self._stats.clear()

    def release(self) -> None:
        """Free every buffer (the counters are kept)."""
        with self._lock:
            self._buffers.clear()

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
        dtype = np.dtype(dtype)
        out = np.empty(shape, dtype=dtype)
        if out.size:
            with self._lock:
                self._count(tag, hit=False, nbytes=int(out.nbytes))
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
