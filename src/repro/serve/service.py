"""EvdService: the async EVD-as-a-service front door.

``submit`` validates the request once, passes admission control, and
enqueues; ``result`` waits for the job's terminal state; ``cancel``
removes a queued job or asks a running one to yield at its next durable
checkpoint.  A worker pool drains the queue and a scheduler thread
applies the global policies (heartbeat, deadline/priority preemption,
overload shedding).

Observability is first-class: the service owns a PR-6 metrics registry
(installed process-wide for its lifetime so driver spans/GEMM telemetry
flow into it), emits a heartbeat file, appends one manifest JSONL line
per terminal job, and reads per-class latency rows off the registry's
latency sketches.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

import numpy as np

from ..errors import AdmissionError, ConfigurationError, ValidationError
from ..gemm.engine import make_engine
from ..ioutils import append_jsonl
from ..obs.live.health import Heartbeat
from ..obs.live.registry import MetricsRegistry, install, uninstall
from ..obs.live.sinks import render_prometheus
from ..precision.modes import Precision
from ..sbr.methods import default_nb, sbr_method
from ..validation import as_symmetric_matrix
from .coalesce import Coalescer
from .degrade import DegradationPolicy
from .job import PRIORITIES, Job, JobResult, JobSpec, RetryPolicy
from .policy import AdmissionController, CircuitBreaker
from .queue import BoundedJobQueue
from .scheduler import Scheduler
from .slo import SloPolicy, SloTracker
from .worker import Worker

__all__ = ["EvdService"]


class EvdService:
    """Async EVD serving: bounded queue, worker pool, control loop.

    Use as a context manager (``with EvdService(...) as svc``) or call
    :meth:`start` / :meth:`shutdown` explicitly.

    Parameters
    ----------
    workers : int
        Worker threads (one running job each).
    queue_capacity, backpressure :
        Bounded-queue size and full-queue discipline (``"reject"`` |
        ``"block"``) — see :class:`BoundedJobQueue`.
    spool_dir : str, optional
        Root for per-job checkpoint run dirs and the manifest; a temp
        dir is created when omitted.
    coalesce : bool
        Enable the same-shape batching coalescer.
    stall_after : float or None
        Admission stall gate: reject new work when the registry shows no
        solver progress for this long while jobs run (None disables).
    seed : int
        Seeds the per-worker backoff-jitter rngs (deterministic soaks).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_capacity: int = 64,
        backpressure: str = "reject",
        spool_dir: "str | None" = None,
        degrade: "DegradationPolicy | None" = None,
        breaker: "CircuitBreaker | None" = None,
        coalesce: bool = True,
        max_batch: int = 8,
        checkpoint_every: int = 1,
        stall_after: "float | None" = 30.0,
        seed: int = 0,
        tick: float = 0.05,
        scheduler_interval: float = 0.05,
        heartbeat: bool = True,
        slo: "SloPolicy | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.clock = time.monotonic
        self.sleep = time.sleep
        self.tick = tick
        self.seed = seed
        self.checkpoint_every = checkpoint_every
        #: Epoch anchoring every job's trace timeline on one time axis.
        self.epoch = self.clock()

        if spool_dir is None:
            spool_dir = tempfile.mkdtemp(prefix="repro-serve-")
        self.spool_dir = spool_dir
        os.makedirs(self.spool_dir, exist_ok=True)
        self.manifest_path = os.path.join(self.spool_dir, "manifest.jsonl")

        self.reg = MetricsRegistry()
        self.queue = BoundedJobQueue(queue_capacity, backpressure=backpressure)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.admission = AdmissionController(
            breaker=self.breaker, registry=self.reg, stall_after=stall_after,
        )
        self.degrade = degrade if degrade is not None else DegradationPolicy()
        self.coalescer = Coalescer(max_batch=max_batch) if coalesce else None
        self.batch_engine = make_engine("fp64")
        self.heartbeat = (
            Heartbeat(os.path.join(self.spool_dir, "heartbeat.json"))
            if heartbeat else None
        )
        #: Fault-injection hook: ``callable(job) -> CrashInjector | None``
        #: consulted once per attempt (soak harness / tests).
        self.fault_factory = None

        self.workers = [Worker(self, i) for i in range(workers)]
        self.scheduler = Scheduler(self, interval=scheduler_interval)
        self.overloaded = False

        self.slo = SloTracker(self.reg, slo)

        self._jobs: "dict[str, Job]" = {}
        self._jobs_lock = threading.Lock()
        self._outcomes: "dict[str, int]" = {}
        self._started = False
        self._shut_down = False
        self._prev_registry = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "EvdService":
        if self._started:
            return self
        self._started = True
        # Process-wide registry for the service's lifetime: driver spans
        # and GEMM telemetry from worker threads land here, which also
        # feeds the admission controller's stall signal.
        self._prev_registry = install(self.reg)
        self.scheduler.start()
        for w in self.workers:
            w.start()
        return self

    def __enter__(self) -> "EvdService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None)

    @property
    def queue_closed(self) -> bool:
        return self._shut_down

    def shutdown(self, *, wait: bool = True, timeout: float = 60.0) -> None:
        """Stop accepting work; drain (``wait=True``) or cancel the queue.

        Every non-terminal job still ends in a terminal state: drained
        jobs finish normally, cancelled ones end ``"cancelled"``, and
        running jobs either complete or (checkpointed) yield at their
        next durable checkpoint and end ``"cancelled"``.
        """
        if self._shut_down:
            return
        self.admission.begin_shutdown()
        self._shut_down = True
        deadline = self.clock() + timeout
        if wait:
            while self.clock() < deadline:
                with self._jobs_lock:
                    pending = [j for j in self._jobs.values() if not j.terminal]
                if not pending:
                    break
                self.sleep(self.tick)
        # Cancel whatever is left: queued jobs terminate immediately,
        # running checkpointed jobs yield at the next commit.
        with self._jobs_lock:
            leftovers = [j for j in self._jobs.values() if not j.terminal]
        for job in leftovers:
            self._cancel_job(job, reason="shutdown")
        self.queue.close()
        self.scheduler.stop()
        for w in self.workers:
            w.stop()
        self.scheduler.join(timeout=5.0)
        for w in self.workers:
            w.join(timeout=max(deadline - self.clock(), 5.0))
        with self._jobs_lock:
            stragglers = [j for j in self._jobs.values() if not j.terminal]
        for job in stragglers:
            self.finish(job, "cancelled", error="service shutdown")
        if self.heartbeat is not None:
            self.heartbeat.beat(self.reg)
        # Final Prometheus snapshot: the SLO burn-rate gauges and latency
        # sketches of the whole run, next to the manifest/heartbeat.
        try:
            with open(
                os.path.join(self.spool_dir, "metrics.prom"),
                "w", encoding="utf-8",
            ) as fh:
                fh.write(render_prometheus(self.reg.snapshot()))
        except OSError:
            self.reg.inc("repro_serve_manifest_errors_total")
        uninstall(self._prev_registry)

    # -- client API --------------------------------------------------------
    def submit(self, a=None, *, spec: "JobSpec | None" = None, **kwargs) -> str:
        """Validate, admit, and enqueue one request; returns the job id.

        Raises :class:`~repro.errors.ValidationError` for a bad matrix,
        :class:`~repro.errors.AdmissionError` when the service cannot
        take the job right now (full queue, open breaker, stalled pool,
        shutdown, or an invalid request shape) — ``.reason`` and
        ``.retry_after`` tell the client what to do about it.
        """
        if spec is None:
            if a is None:
                raise AdmissionError("submit needs a matrix", reason="invalid")
            spec = JobSpec(a=np.asarray(a), **kwargs)
        if spec.priority not in PRIORITIES:
            raise AdmissionError(
                f"unknown priority {spec.priority!r} (expected one of "
                f"{PRIORITIES})", reason="invalid",
            )
        if spec.deadline_seconds is not None and spec.deadline_seconds <= 0:
            raise AdmissionError(
                f"deadline_seconds must be positive, got "
                f"{spec.deadline_seconds}", reason="invalid",
            )
        if spec.retry.max_attempts < 1:
            raise AdmissionError(
                "retry.max_attempts must be >= 1", reason="invalid",
            )
        # Names a worker could not run are refused here, not after a
        # failed attempt.
        try:
            method = sbr_method(spec.method)
            Precision.from_name(spec.precision)
        except ConfigurationError as exc:
            raise AdmissionError(str(exc), reason="invalid") from None
        # Validate the matrix once here, in the dtype the client sent,
        # then cast; workers run check_input=False.
        spec.a = as_symmetric_matrix(spec.a, dtype=np.float64)
        # Fit the block sizes to the matrix so a small request never
        # bounces off the driver's blocksize validation (clients rarely
        # tune b/nb per matrix in a serving setting).
        n = spec.a.shape[0]
        spec.b = max(1, min(spec.b, n))
        if spec.nb is None and method.takes_nb:
            nb = min(default_nb(spec.b), n)
            spec.nb = max((nb // spec.b) * spec.b, spec.b)

        self.admission.admit()
        job = Job(spec, clock=self.clock, epoch=self.epoch)
        if spec.checkpointed:
            job.run_dir = os.path.join(self.spool_dir, job.id, "run")
        with self._jobs_lock:
            self._jobs[job.id] = job
        # The trace starts here: admission is the first lifecycle event
        # under the root context minted in Job.__init__.  Recorded
        # before the enqueue so a worker dequeuing immediately can never
        # write its queue-wait event ahead of the admit (a rejected put
        # below drops the job, timeline and all, so the stray event on
        # the backpressure path is never observable).
        job.record_event("serve.admit", priority=spec.priority)
        try:
            self.queue.put(job)
        except AdmissionError:
            with self._jobs_lock:
                self._jobs.pop(job.id, None)
            self.reg.inc("repro_serve_rejections_total", reason="queue_full")
            raise
        self.reg.inc(
            "repro_serve_submitted_total", priority=spec.priority,
        )
        return job.id

    def result(
        self, job_id: str, *, timeout: "float | None" = None
    ) -> "JobResult | None":
        """Block until the job is terminal; None on timeout."""
        job = self._get(job_id)
        if not job.done.wait(timeout=timeout):
            return None
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; True if the cancel took effect (job not already
        terminal).  Queued jobs terminate immediately; running
        checkpointed jobs yield at their next durable checkpoint."""
        job = self._get(job_id)
        return self._cancel_job(job, reason="cancel")

    def _cancel_job(self, job: Job, *, reason: str) -> bool:
        if job.terminal:
            return False
        token = job.token
        if job.state == "running" and token is not None:
            token.request(reason)
            return True
        if job.state == "running":
            # Non-checkpointed run with no preemption sites: the worker
            # discards the result on completion (cancel flag on token is
            # unavailable), so fall through to immediate finish only for
            # queued jobs.
            return False
        finished = self.finish(
            job, "cancelled", error=f"cancelled while queued ({reason})",
        )
        return finished is not None

    def job(self, job_id: str) -> Job:
        return self._get(job_id)

    def _get(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job id: {job_id!r}")
        return job

    # -- worker/scheduler callbacks ---------------------------------------
    def crash_for(self, job: Job):
        """Per-attempt crash injector from the fault hook (or None)."""
        if self.fault_factory is None:
            return None
        return self.fault_factory(job)

    def requeue(self, job: Job) -> None:
        """Return a preempted job to the queue (never lossy)."""
        job.token = None
        job.state = "queued"
        job.enqueued = self.clock()
        try:
            self.queue.requeue(job)
        except AdmissionError:
            # Queue already closed: terminate rather than lose the job.
            self.finish(job, "cancelled", error="service shutdown during requeue")
            return
        self.reg.inc(
            "repro_serve_requeues_total", priority=job.spec.priority,
        )

    def finish(self, job: Job, outcome: str, **result) -> "JobResult | None":
        """Move ``job`` to a terminal state, record it, then wake its waiters.

        Every terminal transition in the service goes through here, so
        :meth:`result` returns only after :meth:`stats`,
        :meth:`latency_rows` and the registry count the job.  Returns what
        :meth:`Job.finish` returns (None when an earlier finish won).
        """
        finished = job.finish(outcome, **result)
        self._record_terminal(job)
        return finished

    def _record_terminal(self, job: Job) -> None:
        """Record one terminal job (manifest line and metrics) once, then
        set its ``done``."""
        r = job.result
        if r is None:  # not terminal: nothing to record or wake
            return
        cls = job.spec.priority
        with self._jobs_lock:
            if getattr(job, "_recorded", False):
                return  # the recorder sets done when it has finished
            job._recorded = True
            self._outcomes[r.outcome] = self._outcomes.get(r.outcome, 0) + 1
        try:
            job.record_event("serve.result", outcome=r.outcome)
            self.slo.record_terminal(job)
            self.reg.inc(
                "repro_serve_jobs_total", priority=cls, outcome=r.outcome,
            )
            self.reg.observe(
                "repro_serve_latency_seconds", r.wall, priority=cls,
            )
            self.reg.observe(
                "repro_serve_queue_wait_seconds", r.queue_wait, priority=cls,
            )
            try:
                append_jsonl(self.manifest_path, job.manifest_record())
            except OSError:
                self.reg.inc("repro_serve_manifest_errors_total")
        finally:
            job.done.set()

    # -- introspection / export -------------------------------------------
    def stats(self) -> dict:
        with self._jobs_lock:
            outcomes = dict(self._outcomes)
            total = len(self._jobs)
            pending = sum(1 for j in self._jobs.values() if not j.terminal)
        return {
            "jobs_total": total,
            "jobs_pending": pending,
            "outcomes": outcomes,
            "queue_depth": self.queue.depth(),
            "queue_by_class": self.queue.depth_by_class(),
            "queue_fullness": self.queue.fullness(),
            "overloaded": self.overloaded,
            "breaker": self.breaker.snapshot(),
            "active_jobs": self.admission.active_jobs,
        }

    def latency_rows(self) -> "list[dict]":
        """Per-priority-class p50/p99 latency and queue wait of every
        terminal job, read off the registry's sketches (1% relative
        error), the same samples as the Prometheus series."""
        rows = []
        for cls in PRIORITIES:
            lat = self.reg.histogram("repro_serve_latency_seconds", priority=cls)
            qwait = self.reg.histogram("repro_serve_queue_wait_seconds", priority=cls)
            if lat is None or qwait is None:
                continue
            rows.append({
                "key": f"serve-{cls}",
                "priority": cls,
                "jobs": lat.count,
                "p50": lat.quantile(0.5),
                "p99": lat.quantile(0.99),
                "queue_wait_p50": qwait.quantile(0.5),
                "queue_wait_p99": qwait.quantile(0.99),
            })
        return rows
