"""Phase spans, counters, and GEMM events — the one telemetry stream.

The library's hot paths are instrumented with *spans*::

    with obs.span("sbr.panel"):
        ...

A span measures wall-clock time between entry and exit, nests (one
per-thread span stack gives every span a ``/``-joined path), and carries
named counters and metadata.  Every instrumented site makes one call
into this module (:func:`span`, :func:`counter`, :func:`gemm_event`,
:func:`ws_take`, :func:`ckpt_saved`, :func:`solver_iteration`,
:func:`mark`), which fans it out to the consumers in the one activation
slot, ``_active``: a :class:`Collector` (:func:`collect`; finished spans
and GEMM events for the run manifest) and a live
:class:`~repro.obs.live.registry.MetricsRegistry` (:func:`use_registry`;
current aggregates and phase).  The two are views of the same stream.
Telemetry is **off by default**: with nothing installed ``_active`` is
``None``, :func:`span` returns a shared no-op object and every hook
costs one module-attribute read — no allocation, no timing, no locking::

    with obs.collect() as session:
        res = syevd_2stage(a, b=16, record_trace=True)
    session.spans          # finished spans, in completion order
    session.gemm_events    # per-GEMM latency records (see below)

The GEMM engines report one :class:`GemmEvent` per call — shape, tag,
engine, measured latency, and the path of the enclosing span — so the
phase timeline joins against the semantic
:class:`repro.gemm.trace.GemmTrace` tags.

This module depends only on the standard library so the numeric packages
can import it without cycles.  The finished-span list is lock-guarded,
so concurrent instrumented threads are safe.

Time comes from the collector's injectable *clock* (the registry's when
only a registry is installed).  Tests pass a
deterministic fake clock so duration-dependent logic is testable
without wall-clock sleeps; the engine hook reads the same clock through
:func:`now`, keeping span and GEMM-event timestamps on one timeline.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "GemmEvent",
    "Collector",
    "collect",
    "is_enabled",
    "active_collector",
    "active_registry",
    "install",
    "uninstall",
    "use_registry",
    "span",
    "counter",
    "gemm_event",
    "ws_take",
    "ckpt_saved",
    "solver_iteration",
    "mark",
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

    The finished-span and event lists are shared and lock-guarded; the
    active-span stack is the module's per-thread one.
    """

    def __init__(self, clock=None) -> None:
        self.clock = clock if clock is not None else time.perf_counter
        self.epoch = self.clock()
        self.spans: list[Span] = []
        self.gemm_events: list[GemmEvent] = []
        self._lock = threading.Lock()

    def add(self, span: Span) -> None:
        """Append one finished span."""
        with self._lock:
            self.spans.append(span)

    def current_path(self) -> str:
        """Path of the innermost span on this thread that this collector's
        spans nest under ("" if none)."""
        sp = _innermost(self)
        return sp.path if sp is not None else ""

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


#: Per-thread stack of open spans, shared by every consumer.
_tls = threading.local()


def _stack() -> list:
    """This thread's stack of open spans (innermost last)."""
    st = getattr(_tls, "stack", None)
    if st is None:
        st = _tls.stack = []
    return st


def _innermost(col: "Collector | None") -> "_LiveSpan | None":
    """Innermost open span on this thread that spans recorded by ``col``
    nest under: one ``col`` recorded, or one no collector recorded.
    Spans of another collector (an outer session shadowed by ``col``)
    are skipped."""
    for sp in reversed(_stack()):
        owner = sp._sinks.collector
        if owner is None or owner is col:
            return sp
    return None


class _LiveSpan:
    """Open span context manager (returned by :func:`span` when on).

    On entry it joins the thread's span stack and notifies the registry;
    on exit it hands a finished :class:`Span` to the collector and
    notifies the registry — each consumer only if it was installed when
    the span opened.
    """

    __slots__ = ("_sinks", "name", "path", "depth", "counters", "meta", "_t0")

    def __init__(self, sinks: "_Sinks", name: str, meta: dict) -> None:
        self._sinks = sinks
        self.name = name
        self.meta = meta
        self.counters: dict = {}
        self.path = name
        self.depth = 0
        self._t0 = 0.0

    def __enter__(self) -> "_LiveSpan":
        parent = _innermost(self._sinks.collector)
        if parent is not None:
            self.path = f"{parent.path}/{self.name}"
            self.depth = parent.depth + 1
        _stack().append(self)
        self._t0 = self._sinks.clock()
        reg = self._sinks.registry
        if reg is not None:
            reg.span_started(self.path, self.depth)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        sinks = self._sinks
        duration = sinks.clock() - self._t0
        st = _stack()
        if st and st[-1] is self:
            st.pop()
        col = sinks.collector
        if col is not None:
            col.add(Span(
                name=self.name,
                path=self.path,
                start=self._t0 - col.epoch,
                duration=duration,
                depth=self.depth,
                counters=self.counters,
                meta=self.meta,
            ))
        if sinks.registry is not None:
            sinks.registry.span_finished(self.path, self.depth, duration)
        return False

    def count(self, name: str, value: float = 1) -> None:
        """Accumulate a named counter on this span."""
        self.counters[name] = self.counters.get(name, 0) + value


class _NullSpan:
    """Shared no-op span: what :func:`span` returns when telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def count(self, name: str, value: float = 1) -> None:
        pass


NULL_SPAN = _NullSpan()


class _Sinks:
    """What the activation slot holds: the installed collector and/or
    registry, and the clock telemetry reads (the collector's, else the
    registry's)."""

    __slots__ = ("collector", "registry", "clock")

    def __init__(self, collector: "Collector | None", registry) -> None:
        self.collector = collector
        self.registry = registry
        self.clock = (collector if collector is not None else registry).clock


#: The one process-wide activation slot (None = telemetry off).
_active: _Sinks | None = None
_activation_lock = threading.Lock()


def _swap(kind: str, consumer):
    """Put ``consumer`` (None clears) in the ``kind`` ("collector" or
    "registry") seat of the slot, keep the other; returns the one replaced."""
    global _active
    with _activation_lock:
        seats = {"collector": None, "registry": None}
        if _active is not None:
            seats = {"collector": _active.collector, "registry": _active.registry}
        prev, seats[kind] = seats[kind], consumer
        live = any(v is not None for v in seats.values())
        _active = _Sinks(**seats) if live else None
        return prev


def is_enabled() -> bool:
    """Whether a collector is currently active."""
    return active_collector() is not None


def active_collector() -> Collector | None:
    """The active collector, or None when none is installed."""
    sinks = _active
    return sinks.collector if sinks is not None else None


def active_registry():
    """The installed live metrics registry, or None."""
    sinks = _active
    return sinks.registry if sinks is not None else None


class collect:
    """Context manager activating a fresh :class:`Collector`.

    Nesting restores the previous collector on exit, so an outer session
    (e.g. a benchmark harness) is shadowed, not corrupted, by an inner
    one.  An installed registry stays installed.  ``clock`` injects a
    deterministic time source for tests.
    """

    def __init__(self, clock=None) -> None:
        self.collector = Collector(clock=clock)
        self._prev: Collector | None = None

    def __enter__(self) -> Collector:
        self._prev = _swap("collector", self.collector)
        return self.collector

    def __exit__(self, exc_type, exc, tb) -> bool:
        _swap("collector", self._prev)
        return False


def install(reg):
    """Install ``reg`` as the live registry; returns the previous one so
    callers can restore it (see :class:`use_registry`).  An active
    collector stays active."""
    return _swap("registry", reg)


def uninstall(prev=None) -> None:
    """Restore ``prev`` (or clear) as the live registry."""
    _swap("registry", prev)


class use_registry:
    """Context manager installing a registry for a code region.

    ``use_registry(None)`` is a no-op, so call sites can forward an
    optional registry without branching::

        with use_registry(reg):
            res = syevd_2stage(a)
    """

    def __init__(self, reg) -> None:
        self.registry = reg
        self._prev = None

    def __enter__(self):
        if self.registry is not None:
            self._prev = install(self.registry)
        return self.registry

    def __exit__(self, *exc) -> None:
        if self.registry is not None:
            uninstall(self._prev)


def span(name: str, **meta):
    """Timed, nested region context manager (no-op when off).

    Parameters
    ----------
    name : str
        Call-site label; the full phase path is derived from nesting.
    **meta
        Free-form metadata stored on the finished span.
    """
    sinks = _active
    if sinks is None:
        return NULL_SPAN
    return _LiveSpan(sinks, name, meta)


def now() -> float:
    """Current time on the telemetry clock (``time.perf_counter`` when off).

    Instrumentation points can time unconditionally and stay consistent
    with an injected fake clock when one is installed.
    """
    sinks = _active
    return sinks.clock() if sinks is not None else time.perf_counter()


def _count(col: Collector, name: str, value: float) -> None:
    sp = _innermost(col)
    if sp is not None:
        sp.count(name, value)


def counter(name: str, value: float = 1) -> None:
    """Accumulate a counter on the innermost open span (collector only)."""
    sinks = _active
    if sinks is not None and sinks.collector is not None:
        _count(sinks.collector, name, value)


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
    """Report one timed GEMM call (engine hook).

    The collector stores a :class:`GemmEvent` attributed to the innermost
    open span; the registry counts the launch, its products, flops and
    latency.  ``start`` is the call's entry time as read from :func:`now`;
    it is stored relative to the collector epoch.  ``batch`` is the stack
    depth of a ``gemm_batched`` call (1 otherwise).
    """
    sinks = _active
    if sinks is None:
        return
    col = sinks.collector
    if col is not None:
        ev = GemmEvent(
            m=m, n=n, k=k, tag=tag, engine=engine, op=op,
            seconds=seconds, span_path=col.current_path(),
            start=(start - col.epoch) if start is not None else -1.0,
            batch=batch,
        )
        with col._lock:
            col.gemm_events.append(ev)
    if sinks.registry is not None:
        sinks.registry.record_gemm(m, n, k, tag=tag, engine=engine, op=op,
                                   batch=batch, seconds=seconds)


def ws_take(tag: str, hit: bool, nbytes: int) -> None:
    """One workspace-arena request (``hit`` = served from the pool;
    ``nbytes`` = bytes newly allocated on a miss)."""
    sinks = _active
    if sinks is None:
        return
    if sinks.collector is not None:
        _count(sinks.collector, "ws_hit" if hit else "ws_miss", 1)
    if sinks.registry is not None:
        sinks.registry.ws_take(tag, hit, nbytes)


def ckpt_saved(step: str, nbytes: int) -> None:
    """One checkpoint written at ``step`` with ``nbytes`` of payload."""
    sinks = _active
    if sinks is None:
        return
    if sinks.collector is not None:
        _count(sinks.collector, "bytes", nbytes)
    if sinks.registry is not None:
        sinks.registry.ckpt_saved(step, nbytes)


def solver_iteration(phase: str) -> None:
    """One iteration of a budgeted loop in ``phase`` (registry only)."""
    sinks = _active
    if sinks is not None and sinks.registry is not None:
        sinks.registry.solver_iteration(phase)


def mark(name: str | None, /, *series: str, labels: dict | None = None,
         **meta) -> None:
    """One discrete event: +1 on each registry counter in ``series``
    (with ``labels``) and, when ``name`` is given, a zero-duration span
    ``name`` carrying ``meta``."""
    sinks = _active
    if sinks is None:
        return
    if sinks.registry is not None:
        for s in series:
            sinks.registry.inc(s, **(labels or {}))
    if name is not None:
        with _LiveSpan(sinks, name, meta):
            pass
