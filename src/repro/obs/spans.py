"""Phase spans, counters, and GEMM events — the telemetry core.

The library's hot paths are instrumented with *spans*::

    with obs.span("sbr.panel"):
        ...

A span measures wall-clock time (``time.perf_counter``) between entry and
exit, nests (the active span stack gives every span a ``/``-joined path),
and carries named counters and metadata.  Spans are collected by a
process-wide :class:`Collector` that is **off by default**: when no
collector is active, :func:`span` returns a shared no-op object and the
instrumented code pays one module-attribute read per call site — no
allocation, no timing, no locking.  Enable collection with::

    with obs.collect() as session:
        res = syevd_2stage(a, b=16, record_trace=True)
    session.spans          # finished spans, in completion order
    session.gemm_events    # per-GEMM latency records (see below)

Alongside spans, the GEMM engines report one :class:`GemmEvent` per call
while a collector is active — shape, tag, engine, measured latency, and
the path of the enclosing span — so the phase timeline joins against the
semantic :class:`repro.gemm.trace.GemmTrace` tags.

This module depends only on the standard library so the numeric packages
can import it without cycles.  The active-span stack is per-thread
(``threading.local``); the finished-span list is lock-guarded, so
concurrent instrumented threads are safe.

Time comes from the collector's injectable *clock* (default
``time.perf_counter``).  Tests and the benchmark store pass a
deterministic fake clock so duration-dependent logic (regression gates,
zero-duration handling) is testable without wall-clock sleeps; the
engine hook reads the same clock through :func:`now`, keeping span and
GEMM-event timestamps on one timeline.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from .live import registry as _live

__all__ = [
    "Span",
    "GemmEvent",
    "Collector",
    "collect",
    "is_enabled",
    "active_collector",
    "span",
    "counter",
    "gemm_event",
    "now",
]


@dataclass
class Span:
    """One finished timed region.

    Attributes
    ----------
    name : str
        The call-site label (e.g. ``"sbr.panel"``).
    path : str
        ``/``-joined chain of enclosing span names, e.g.
        ``"syevd/sbr/sbr.panel"`` — the phase-attribution key.
    start : float
        Entry time in seconds relative to the collector's epoch.
    duration : float
        Wall-clock seconds between entry and exit.
    depth : int
        Nesting depth (0 for root spans).
    counters : dict
        Named numeric counters accumulated while the span was active.
    meta : dict
        Free-form metadata passed at span creation.
    """

    name: str
    path: str
    start: float
    duration: float
    depth: int
    counters: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable form (the manifest's ``span`` line body)."""
        out = {
            "name": self.name,
            "path": self.path,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
        }
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.meta:
            out["meta"] = dict(self.meta)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(
            name=d["name"],
            path=d["path"],
            start=d["start"],
            duration=d["duration"],
            depth=d["depth"],
            counters=dict(d.get("counters", {})),
            meta=dict(d.get("meta", {})),
        )


@dataclass(frozen=True)
class GemmEvent:
    """One timed GEMM (or syr2k) call attributed to its enclosing span.

    ``start`` is the call's entry time relative to the collector's epoch
    (the same timeline as :attr:`Span.start`), so events place on the
    trace-export timeline next to their enclosing spans.  Events loaded
    from pre-v2 manifests carry ``start = -1.0`` (unknown).
    """

    m: int
    n: int
    k: int
    tag: str
    engine: str
    op: str
    seconds: float
    span_path: str
    start: float = -1.0
    batch: int = 1

    @property
    def flops(self) -> int:
        """Flop count, matching :attr:`repro.gemm.trace.GemmRecord.flops`."""
        return 2 * self.m * self.n * self.k * self.batch

    def to_dict(self) -> dict:
        out = {
            "m": self.m, "n": self.n, "k": self.k,
            "tag": self.tag, "engine": self.engine, "op": self.op,
            "seconds": self.seconds, "span_path": self.span_path,
        }
        if self.start >= 0.0:
            out["start"] = self.start
        if self.batch != 1:
            out["batch"] = self.batch
        return out


class Collector:
    """Process-wide sink of finished spans and GEMM events.

    The active-span *stack* is thread-local (each thread nests its own
    spans); the finished-span and event lists are shared and
    lock-guarded.
    """

    def __init__(self, clock=None) -> None:
        self.clock = clock if clock is not None else time.perf_counter
        self.epoch = self.clock()
        self.spans: list[Span] = []
        self.gemm_events: list[GemmEvent] = []
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- stack ------------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def current_path(self) -> str:
        """Path of the innermost active span on this thread ("" if none)."""
        st = self._stack()
        return st[-1].path if st else ""

    # -- queries ----------------------------------------------------------
    @property
    def wall(self) -> float:
        """Seconds since the collector was created (on its own clock)."""
        return self.clock() - self.epoch

    def roots(self) -> list[Span]:
        """Finished depth-0 spans."""
        return [s for s in self.spans if s.depth == 0]

    def by_path(self, path: str) -> list[Span]:
        """Finished spans with exactly the given path."""
        return [s for s in self.spans if s.path == path]

    def time_by_path(self) -> dict[str, float]:
        """Total duration per span path."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.path] = out.get(s.path, 0.0) + s.duration
        return out

    def gemm_seconds_by_span(self) -> dict[str, float]:
        """Measured GEMM seconds per enclosing span path."""
        out: dict[str, float] = {}
        for ev in self.gemm_events:
            out[ev.span_path] = out.get(ev.span_path, 0.0) + ev.seconds
        return out

    def gemm_summary(self) -> dict:
        """Aggregate of all GEMM events (the manifest's ``gemm_summary``).

        ``calls`` counts *products*, not engine launches: a
        ``gemm_batched`` event carrying ``batch=k`` contributes ``k``
        (its flops and seconds already cover the whole stack), so
        throughput ratios are comparable between batched and unbatched
        code paths.  ``launches`` preserves the raw event count.
        """
        by_tag: dict[str, dict] = {}
        by_engine: Counter = Counter()
        total_flops = 0
        total_seconds = 0.0
        total_calls = 0
        for ev in self.gemm_events:
            total_flops += ev.flops
            total_seconds += ev.seconds
            total_calls += ev.batch
            by_engine[ev.engine] += ev.batch
            slot = by_tag.setdefault(
                ev.tag, {"calls": 0, "launches": 0, "flops": 0, "seconds": 0.0}
            )
            slot["calls"] += ev.batch
            slot["launches"] += 1
            slot["flops"] += ev.flops
            slot["seconds"] += ev.seconds
        return {
            "calls": total_calls,
            "launches": len(self.gemm_events),
            "flops": total_flops,
            "seconds": total_seconds,
            "by_tag": by_tag,
            "by_engine": dict(by_engine),
        }


class _LiveSpan:
    """Active-collector span context manager (returned by :func:`span`)."""

    __slots__ = ("_col", "name", "path", "depth", "counters", "meta", "_t0", "_start")

    def __init__(self, col: Collector, name: str, meta: dict) -> None:
        self._col = col
        self.name = name
        self.meta = meta
        self.counters: dict = {}
        self.path = name
        self.depth = 0
        self._t0 = 0.0
        self._start = 0.0

    def __enter__(self) -> "_LiveSpan":
        st = self._col._stack()
        if st:
            parent = st[-1]
            self.path = f"{parent.path}/{self.name}"
            self.depth = parent.depth + 1
        st.append(self)
        self._t0 = self._col.clock()
        self._start = self._t0 - self._col.epoch
        reg = _live.active_registry()
        if reg is not None:
            reg.span_started(self.path, self.depth)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = self._col.clock()
        st = self._col._stack()
        if st and st[-1] is self:
            st.pop()
        finished = Span(
            name=self.name,
            path=self.path,
            start=self._start,
            duration=t1 - self._t0,
            depth=self.depth,
            counters=self.counters,
            meta=self.meta,
        )
        with self._col._lock:
            self._col.spans.append(finished)
        reg = _live.active_registry()
        if reg is not None:
            reg.span_finished(self.path, self.depth, t1 - self._t0)
        return False

    def count(self, name: str, value: float = 1) -> None:
        """Accumulate a named counter on this span."""
        self.counters[name] = self.counters.get(name, 0) + value


class _PhaseSpan:
    """Registry-only span: phase tracking without a :class:`Collector`.

    Returned by :func:`span` when a live metrics registry is installed
    but no collector is active, so progress/phase attribution works in
    ``live=``-only runs without paying for event collection.  Keeps a
    minimal per-thread (path, depth) stack on the registry itself and
    reports enter/exit; records nothing else.
    """

    __slots__ = ("_reg", "name", "path", "depth", "_t0")

    def __init__(self, reg, name: str) -> None:
        self._reg = reg
        self.name = name
        self.path = name
        self.depth = 0
        self._t0 = 0.0

    def __enter__(self) -> "_PhaseSpan":
        st = self._reg._stack()
        if st:
            parent_path, parent_depth = st[-1]
            self.path = f"{parent_path}/{self.name}"
            self.depth = parent_depth + 1
        st.append((self.path, self.depth))
        self._t0 = self._reg.clock()
        self._reg.span_started(self.path, self.depth)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        st = self._reg._stack()
        if st and st[-1] == (self.path, self.depth):
            st.pop()
        self._reg.span_finished(
            self.path, self.depth, self._reg.clock() - self._t0
        )
        return False

    def count(self, name: str, value: float = 1) -> None:
        pass


class _NullSpan:
    """Shared no-op span: what :func:`span` returns when collection is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def count(self, name: str, value: float = 1) -> None:
        pass


NULL_SPAN = _NullSpan()

#: The process-wide active collector (None = telemetry disabled).
_active: Collector | None = None
_activation_lock = threading.Lock()


def is_enabled() -> bool:
    """Whether a collector is currently active."""
    return _active is not None


def active_collector() -> Collector | None:
    """The active collector, or None when telemetry is disabled."""
    return _active


class collect:
    """Context manager activating a fresh :class:`Collector`.

    Nesting restores the previous collector on exit, so an outer session
    (e.g. a benchmark harness) is shadowed, not corrupted, by an inner
    one.  ``clock`` injects a deterministic time source for tests.
    """

    def __init__(self, clock=None) -> None:
        self.collector = Collector(clock=clock)
        self._prev: Collector | None = None

    def __enter__(self) -> Collector:
        global _active
        with _activation_lock:
            self._prev = _active
            _active = self.collector
        return self.collector

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _active
        with _activation_lock:
            _active = self._prev
        return False


def span(name: str, **meta):
    """Timed, nested region context manager (no-op when disabled).

    Parameters
    ----------
    name : str
        Call-site label; the full phase path is derived from nesting.
    **meta
        Free-form metadata stored on the finished span.
    """
    col = _active
    if col is not None:
        return _LiveSpan(col, name, meta)
    reg = _live.active_registry()
    if reg is not None:
        return _PhaseSpan(reg, name)
    return NULL_SPAN


def now() -> float:
    """Current time on the active collector's clock.

    Falls back to the live registry's clock when only live metrics are
    active, then to ``time.perf_counter``, so instrumentation points can
    time unconditionally and stay consistent with an injected fake clock
    when one is active.
    """
    col = _active
    if col is not None:
        return col.clock()
    reg = _live.active_registry()
    if reg is not None:
        return reg.clock()
    return time.perf_counter()


def counter(name: str, value: float = 1) -> None:
    """Accumulate a counter on the innermost active span (no-op otherwise)."""
    col = _active
    if col is None:
        return
    st = col._stack()
    if st:
        st[-1].count(name, value)


def gemm_event(
    m: int,
    n: int,
    k: int,
    *,
    tag: str,
    engine: str,
    op: str,
    seconds: float,
    start: float | None = None,
    batch: int = 1,
) -> None:
    """Report one timed GEMM call to the active collector (engine hook).

    ``start`` is the call's entry time as read from :func:`now` (i.e. on
    the collector's clock); it is stored relative to the collector epoch.
    ``batch`` is the stack depth of a ``gemm_batched`` call (1 otherwise).
    """
    col = _active
    if col is None:
        return
    ev = GemmEvent(
        m=m, n=n, k=k, tag=tag, engine=engine, op=op,
        seconds=seconds, span_path=col.current_path(),
        start=(start - col.epoch) if start is not None else -1.0,
        batch=batch,
    )
    with col._lock:
        col.gemm_events.append(ev)
