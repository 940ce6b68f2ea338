"""Job model for the EVD serving layer.

A :class:`JobSpec` is everything the client asks for: the matrix, the
solver configuration, a priority class, an SLO deadline, and a retry
policy.  A :class:`Job` is the service-side lifecycle wrapper around one
spec — queued, running, possibly preempted back into the queue, and
finally one of the five terminal outcomes:

========== ====================================================
``done``       solved within policy, full-fidelity result
``degraded``   solved, but under a recorded degradation (cheaper
               precision, no eigenvectors, past-deadline finish)
``shed``       dropped by overload / deadline policy before (or
               instead of) solving
``failed``     exhausted retries or hit a non-retryable error
``cancelled``  client cancel
========== ====================================================

Zero jobs are ever *lost*: every submitted job ends in exactly one of
these states and its manifest line records which and why.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

import numpy as np

from ..eig.budget import WallClockBudget
from ..obs.tracing import TraceContext, lifecycle_span

__all__ = [
    "PRIORITIES",
    "TERMINAL_STATES",
    "RetryPolicy",
    "JobSpec",
    "JobResult",
    "Job",
]

#: Priority classes, highest first.  Lower classes are shed first under
#: overload and preempted first under deadline pressure.
PRIORITIES = ("interactive", "standard", "batch")

#: Every job ends in exactly one of these.
TERMINAL_STATES = ("done", "degraded", "shed", "failed", "cancelled")

_seq = itertools.count(1)


def priority_rank(priority: str) -> int:
    """Smaller rank = more urgent (heap order)."""
    return PRIORITIES.index(priority)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff + jitter.

    ``max_attempts`` counts *tries*, not retries: 3 means the original
    attempt plus two retries.  Numerical breakdowns retry at an
    escalated precision (layered on the in-driver escalation ladder);
    crashes retry by resuming the job's checkpoint.  Backoff delays come
    from :func:`repro.resilience.policy.backoff` and are deterministic
    under the service's seeded rng.
    """

    max_attempts: int = 3
    backoff_base: float = 0.02
    backoff_cap: float = 1.0
    backoff_jitter: float = 0.5


@dataclass
class JobSpec:
    """One EVD request as submitted by a client."""

    a: np.ndarray
    b: int = 8
    nb: "int | None" = None
    method: str = "wy"
    precision: str = "fp32"
    want_vectors: bool = True
    priority: str = "standard"
    deadline_seconds: "float | None" = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Durable checkpointed run directory — required for preemption and
    #: crash-resume; small throwaway requests leave it off.
    checkpointed: bool = False
    #: May be packed into a same-shape ``gemm_batched`` EVD stack.
    coalescible: bool = False
    #: Online ABFT knob forwarded to the driver: ``None``/``"off"``,
    #: ``"detect"``, or ``"correct"`` (or an ``AbftPolicy``).
    abft: "object | None" = None
    #: Fault injector forwarded to the driver (chaos harness only).
    faults: "object | None" = None
    tag: str = ""


@dataclass
class JobResult:
    """What :meth:`EvdService.result` returns for a terminal job."""

    job_id: str
    outcome: str
    eigenvalues: "np.ndarray | None" = None
    eigenvectors: "np.ndarray | None" = None
    error: "str | None" = None
    error_type: "str | None" = None
    degradations: list = field(default_factory=list)
    deadline_missed: bool = False
    attempts: int = 0
    preemptions: int = 0
    #: Attempts retried because the driver escalated an uncorrectable
    #: silent-data-corruption event (:class:`repro.errors.SdcError`).
    sdc_retries: int = 0
    wall: float = 0.0
    queue_wait: float = 0.0
    precision_used: str = ""
    batched: bool = False

    @property
    def ok(self) -> bool:
        return self.outcome in ("done", "degraded")


class Job:
    """Service-side lifecycle wrapper around one :class:`JobSpec`."""

    def __init__(
        self,
        spec: JobSpec,
        *,
        clock,
        job_id: "str | None" = None,
        epoch: float = 0.0,
    ):
        self.seq = next(_seq)
        self.id = job_id if job_id is not None else f"job-{self.seq:06d}"
        self.spec = spec
        self.clock = clock
        #: Service epoch: timeline event timestamps are relative to it so
        #: every job in a soak shares one time axis.
        self.epoch = epoch
        self.submitted = clock()
        #: Last enqueue time (submission, then refreshed on requeue) —
        #: the anchor for per-dequeue queue-wait accounting.
        self.enqueued = self.submitted
        self.started: "float | None" = None
        self.state = "queued"
        self.attempts = 0
        self.preemptions = 0
        self.sdc_retries = 0
        # Causal trace: minted once per request, carried through every
        # attempt, preemption, and checkpoint resume.  ``timeline``
        # accumulates lifecycle events for the job's manifest line.
        self.trace = TraceContext.new()
        self.timeline: "list[dict]" = []
        self.last_attempt_span: "str | None" = None
        self.resume_pending = False
        self.first_attempt_at: "float | None" = None
        self.degradations: list = []
        self.deadline_missed = False
        self.run_dir: "str | None" = None
        self.token = None  # PreemptionToken while running
        self.result: "JobResult | None" = None
        self.done = threading.Event()
        self._lock = threading.Lock()
        # The SLO deadline mapped onto the existing wall-clock budget
        # machinery: anchored at submission, checked at attempt
        # boundaries, and driving the scheduler's preemption decisions.
        self.budget = WallClockBudget(
            spec.deadline_seconds, phase=f"serve.{spec.priority}"
        )
        # Effective solver knobs — degradation rewrites these, never the
        # client's original spec.
        self.precision = spec.precision
        self.want_vectors = spec.want_vectors

    # -- deadline ----------------------------------------------------------
    @property
    def past_deadline(self) -> bool:
        return self.budget.expired

    def remaining(self) -> "float | None":
        return self.budget.remaining()

    # -- tracing -----------------------------------------------------------
    def now(self) -> float:
        """Seconds since the service epoch (the shared timeline axis)."""
        return self.clock() - self.epoch

    def record_event(
        self,
        name: str,
        *,
        start: "float | None" = None,
        duration: float = 0.0,
        worker: "str | None" = None,
        **meta,
    ) -> str:
        """Append one lifecycle event to the job's timeline.

        Mints a child span id under the job's trace, records the event
        in ``timeline`` (persisted on the manifest line), and mirrors it
        into the active PR-1 collector via :func:`lifecycle_span` (free
        when telemetry is off).  Returns the new span id so callers can
        link later events to it (preempt -> resume continuity).
        """
        end = self.now()
        if start is None:
            start = end - duration
        child = self.trace.child()
        ev = {
            "name": name,
            "t": round(start, 6),
            "dur": round(duration, 6),
            "span_id": child.span_id,
            "parent_id": self.trace.span_id,
        }
        if worker is not None:
            ev["worker"] = worker
        for key, value in meta.items():
            if value is not None:
                ev[key] = value
        self.timeline.append(ev)
        lifecycle_span(
            name, duration, trace=child, worker=worker, job=self.id,
            **{k: v for k, v in meta.items() if v is not None},
        )
        return child.span_id

    # -- lifecycle ---------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def add_degradation(self, kind: str, reason: str, **detail) -> None:
        self.degradations.append({"kind": kind, "reason": reason, **detail})

    def finish(
        self,
        outcome: str,
        *,
        eigenvalues=None,
        eigenvectors=None,
        error: "Exception | str | None" = None,
        batched: bool = False,
    ) -> "JobResult | None":
        """Move to a terminal state (idempotent; first finish wins)."""
        if outcome not in TERMINAL_STATES:
            raise ValueError(f"not a terminal state: {outcome!r}")
        with self._lock:
            if self.terminal:
                return None
            if outcome == "done" and (self.degradations or self.deadline_missed):
                outcome = "degraded"
            self.state = outcome
            now = self.clock()
            self.result = JobResult(
                job_id=self.id,
                outcome=outcome,
                eigenvalues=eigenvalues,
                eigenvectors=eigenvectors,
                error=str(error) if error is not None else None,
                error_type=type(error).__name__
                if isinstance(error, BaseException) else None,
                degradations=list(self.degradations),
                deadline_missed=self.deadline_missed,
                attempts=self.attempts,
                preemptions=self.preemptions,
                sdc_retries=self.sdc_retries,
                wall=now - self.submitted,
                queue_wait=(self.started - self.submitted)
                if self.started is not None else now - self.submitted,
                precision_used=self.precision,
                batched=batched,
            )
        self.done.set()
        return self.result

    def manifest_record(self) -> dict:
        """One JSONL manifest line for this job's terminal state."""
        r = self.result
        rec = {
            "kind": "serve_job",
            "job": self.id,
            "tag": self.spec.tag,
            "n": int(self.spec.a.shape[0]),
            "priority": self.spec.priority,
            "state": self.state,
            "attempts": self.attempts,
            "preemptions": self.preemptions,
            "sdc_retries": self.sdc_retries,
            "deadline_seconds": self.spec.deadline_seconds,
            "deadline_missed": self.deadline_missed,
            "degradations": list(self.degradations),
            "checkpointed": self.spec.checkpointed,
            "run_dir": self.run_dir,
            "trace": self.trace.to_dict(),
            "timeline": list(self.timeline),
        }
        if r is not None:
            rec.update({
                "wall": r.wall,
                "queue_wait": r.queue_wait,
                "precision_used": r.precision_used,
                "batched": r.batched,
                "error": r.error,
                "error_type": r.error_type,
            })
        return rec
