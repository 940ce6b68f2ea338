"""Request-scoped tracing: causal trace ids across the serving stack.

Run-scoped telemetry (spans, GEMM events, manifests) describes one
solver invocation.  A served job, however, can span *several*
invocations: admitted, queued, attempted, preempted at a durable
checkpoint, requeued, and resumed — possibly on another worker.  This
module supplies the causal thread that stitches those pieces back into
one story:

- :class:`TraceContext` — an immutable ``(trace_id, span_id, parent_id)``
  triple minted once per request (``TraceContext.new()``) and extended
  per lifecycle event (``ctx.child()``).  The context serializes to a
  plain dict so it can ride in the PR-4 run-dir header and in every
  serve-manifest line, which is what lets a job killed and resumed in a
  fresh process continue the *same* trace.
- :func:`lifecycle_span` — emits one finished lifecycle span
  (``serve.admit``, ``serve.attempt`` …) into the active PR-1 collector.
  Same fast-path discipline as the PR-6 live hooks: when no collector is
  active the call is one module-attribute read plus a None check — no
  allocation, no locking.
- Serve-manifest analysis: :func:`load_serve_manifest`,
  :func:`check_trace_continuity` (the CI trace gate), and
  :func:`render_trace_summary` (the ``python -m repro.obs trace``
  subcommand body).

Only the standard library is used so ``repro.serve`` and ``repro.ckpt``
can import this without cycles.
"""

from __future__ import annotations

import json
import os
import uuid

from . import spans as _spans
from .spans import Span

__all__ = [
    "TraceContext",
    "lifecycle_span",
    "LIFECYCLE_EVENTS",
    "load_serve_manifest",
    "check_trace_continuity",
    "render_trace_summary",
]

#: The lifecycle span vocabulary emitted by the serving layer, in the
#: order they can occur for one job.  ``serve.attempt`` carries an
#: ``attempt`` index (rendered ``serve.attempt[k]`` by the exporters).
LIFECYCLE_EVENTS = (
    "serve.admit",
    "serve.queue_wait",
    "serve.attempt",
    "serve.preempt",
    "serve.backoff",
    "serve.resume",
    "serve.result",
)


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class TraceContext:
    """Immutable causal context: one trace id, one span id, one parent.

    ``trace_id`` names the whole request; every lifecycle event and every
    solver invocation belonging to that request carries the same value.
    ``span_id`` names this node; ``parent_id`` is the span id of the node
    that caused it (None for the root minted at ``EvdService.submit``).
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(
        self, trace_id: str, span_id: str, parent_id: "str | None" = None
    ) -> None:
        object.__setattr__(self, "trace_id", trace_id)
        object.__setattr__(self, "span_id", span_id)
        object.__setattr__(self, "parent_id", parent_id)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("TraceContext is immutable")

    def __repr__(self) -> str:
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, parent_id={self.parent_id!r})"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.parent_id == other.parent_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.parent_id))

    # -- construction ------------------------------------------------------
    @classmethod
    def new(cls) -> "TraceContext":
        """Mint a fresh root context (one per submitted request)."""
        return cls(trace_id=_new_id(), span_id=_new_id(), parent_id=None)

    def child(self) -> "TraceContext":
        """A new span under this one, in the same trace."""
        return TraceContext(
            trace_id=self.trace_id, span_id=_new_id(), parent_id=self.span_id
        )

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> dict:
        out = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        return out

    @classmethod
    def from_dict(cls, d: "dict | None") -> "TraceContext | None":
        if not d:
            return None
        return cls(
            trace_id=d["trace_id"],
            span_id=d["span_id"],
            parent_id=d.get("parent_id"),
        )

    @classmethod
    def coerce(cls, obj) -> "TraceContext | None":
        """Accept a TraceContext, a serialized dict, or None."""
        if obj is None or isinstance(obj, TraceContext):
            return obj
        if isinstance(obj, dict):
            return cls.from_dict(obj)
        raise TypeError(f"cannot coerce {type(obj).__name__} to TraceContext")

    def span_meta(self) -> dict:
        """The keys this context contributes to a span's ``meta``."""
        meta = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id is not None:
            meta["parent_id"] = self.parent_id
        return meta


def lifecycle_span(
    name: str,
    duration: float = 0.0,
    *,
    trace: "TraceContext | None" = None,
    worker: "str | None" = None,
    **meta,
) -> None:
    """Emit one finished lifecycle span into the active collector.

    The span is placed on the collector's own timeline ending *now*
    (``start = now - duration``), so lifecycle events recorded from the
    serving layer's ``time.monotonic`` clock still land coherently next
    to solver spans.  It goes to the collector only (through
    :meth:`~repro.obs.spans.Collector.add`, like every finished span), so
    the live registry sees no phase for it.  When no collector is active
    this is a no-op that allocates nothing.
    """
    col = _spans.active_collector()
    if col is None:
        return
    if trace is not None:
        meta.update(trace.span_meta())
    if worker is not None:
        meta["worker"] = worker
    end = col.clock() - col.epoch
    col.add(Span(
        name=name,
        path=name,
        start=max(end - duration, 0.0),
        duration=duration,
        depth=0,
        counters={},
        meta=meta,
    ))


# ----------------------------------------------------------------------
# serve-manifest trace analysis
# ----------------------------------------------------------------------


def load_serve_manifest(path: str) -> "list[dict]":
    """Load ``serve_job`` records from a serve spool dir or manifest file.

    ``path`` may be the spool directory (containing ``manifest.jsonl``)
    or the JSONL file itself.  Unknown line kinds and torn trailing
    lines are skipped, matching the additive-schema discipline of the
    run manifests.
    """
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.jsonl")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no serve manifest at {path}")
    records: "list[dict]" = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue  # torn trailing line (crash-safe writer semantics)
            if isinstance(rec, dict) and rec.get("kind") == "serve_job":
                records.append(rec)
    return records


def _timeline(rec: dict) -> "list[dict]":
    tl = rec.get("timeline") or []
    return [ev for ev in tl if isinstance(ev, dict) and "name" in ev]


def check_trace_continuity(records: "list[dict]") -> "list[str]":
    """Verify the causal invariants of a soak's serve-manifest records.

    Returns a list of human-readable problems (empty = pass):

    - every job carries a trace context with a trace id;
    - trace ids are unique per job (two jobs never share a trace);
    - every non-cancelled job's timeline contains ``serve.admit``, at
      least one ``serve.attempt``, and ``serve.result``;
    - every timeline event's ``parent_id`` resolves to the job's root
      span or another event of the *same* job (causality never crosses
      jobs);
    - a preempted job (``preemptions > 0``) has matching
      ``serve.preempt`` and ``serve.resume`` events, and each resume is
      linked (``link_from``) to a previous attempt's span id — the
      "same trace across checkpoint resume" guarantee.
    """
    problems: "list[str]" = []
    seen: "dict[str, str]" = {}
    for rec in records:
        job = rec.get("job", "<unknown>")
        trace = rec.get("trace") or {}
        tid = trace.get("trace_id")
        if not tid:
            problems.append(f"{job}: missing trace context")
            continue
        if tid in seen:
            problems.append(
                f"{job}: trace id {tid} already used by {seen[tid]}"
            )
        seen[tid] = job

        tl = _timeline(rec)
        names = [ev["name"] for ev in tl]
        state = rec.get("state")
        if state == "cancelled" and "serve.attempt" not in names:
            continue  # cancelled while queued: admit-only timeline is fine
        for required in ("serve.admit", "serve.attempt", "serve.result"):
            if required not in names:
                problems.append(f"{job}: timeline missing {required}")

        root = trace.get("span_id")
        ids = {root} | {ev.get("span_id") for ev in tl}
        for ev in tl:
            parent = ev.get("parent_id")
            if parent is not None and parent not in ids:
                problems.append(
                    f"{job}: event {ev['name']} parent {parent} not in trace"
                )

        attempts = [ev for ev in tl if ev["name"] == "serve.attempt"]
        attempt_ids = {ev.get("span_id") for ev in attempts}
        if rec.get("preemptions", 0) > 0:
            if "serve.preempt" not in names:
                problems.append(f"{job}: preempted but no serve.preempt event")
            if "serve.resume" not in names:
                problems.append(f"{job}: preempted but no serve.resume event")
        for ev in tl:
            if ev["name"] != "serve.resume":
                continue
            link = ev.get("link_from")
            if not link:
                problems.append(f"{job}: serve.resume without link_from")
            elif link not in attempt_ids:
                problems.append(
                    f"{job}: serve.resume links {link}, not a prior attempt"
                )
    return problems


def _compact_timeline(rec: dict) -> str:
    parts = []
    for ev in _timeline(rec):
        name = ev["name"].replace("serve.", "")
        if ev["name"] == "serve.attempt":
            k = ev.get("attempt")
            out = ev.get("outcome")
            name = f"attempt[{k}]" if k is not None else "attempt"
            if out and out != "done":
                name += f":{out}"
        parts.append(name)
    return " > ".join(parts)


def render_trace_summary(records: "list[dict]") -> str:
    """Human-readable per-job trace table for the ``obs trace`` CLI."""
    if not records:
        return "no serve_job records"
    lines = [f"{len(records)} jobs"]
    header = (
        f"{'job':<12} {'trace':<17} {'class':<12} {'state':<10} "
        f"{'att':>3} {'pre':>3} {'wall':>8}  timeline"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for rec in sorted(records, key=lambda r: r.get("job", "")):
        trace = (rec.get("trace") or {}).get("trace_id", "-")
        wall = rec.get("wall")
        lines.append(
            f"{rec.get('job', '?'):<12} {trace:<17} "
            f"{rec.get('priority', '?'):<12} {rec.get('state', '?'):<10} "
            f"{rec.get('attempts', 0):>3} {rec.get('preemptions', 0):>3} "
            f"{wall:>8.3f}  {_compact_timeline(rec)}"
            if isinstance(wall, (int, float))
            else f"{rec.get('job', '?'):<12} {trace:<17} "
            f"{rec.get('priority', '?'):<12} {rec.get('state', '?'):<10} "
            f"{rec.get('attempts', 0):>3} {rec.get('preemptions', 0):>3} "
            f"{'-':>8}  {_compact_timeline(rec)}"
        )
    problems = check_trace_continuity(records)
    if problems:
        lines.append("")
        lines.append(f"{len(problems)} continuity problem(s):")
        lines.extend(f"  - {p}" for p in problems)
    else:
        lines.append("")
        lines.append("trace continuity: ok")
    return "\n".join(lines)
