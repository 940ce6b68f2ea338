"""Worker pool: executes jobs with retry, escalation, resume, preemption.

One worker is one thread running one job at a time.  The failure
taxonomy decides the retry shape:

- **Numerical breakdown / non-convergence** — the driver's in-run
  escalation ladder already retried per-panel; if the whole call still
  fails, the worker retries the job at the next-safer precision rung
  (``retry-escalate``).  A checkpointed job's precision is pinned in its
  run config, so the escalated retry starts a *fresh* run directory.
- **Crash** (:class:`~repro.errors.SimulatedCrashError` in the harness;
  a real worker death in production) — the worker retries by re-running
  against the *same* run directory, which resumes from the newest
  committed checkpoint (``retry-resume``) to a bitwise-identical result.
- **Silent data corruption** (:class:`~repro.errors.SdcError`) — the
  in-driver ABFT layer detected damage it could not correct in place and
  the escalation ladder gave up.  The data is transiently corrupt, not
  numerically out of range, so the worker retries at the *same*
  precision (``retry-sdc``) — escalating would waste the safer rung on a
  fault that a clean re-run fixes.  SDC retries are a distinct class in
  the retry taxonomy and SLO bad-event accounting.
- **Preemption** (:class:`~repro.errors.JobPreempted`) — not a failure:
  the scheduler asked for the slot.  The job re-enters the queue with
  its original position and resumes later from its checkpoint.
- **Validation / configuration errors** — non-retryable, fail fast.
- **Anything else** — fails the job and feeds the circuit breaker.

Retries sleep :func:`repro.resilience.policy.backoff` delays
(deterministic under the service's seeded rng).
"""

from __future__ import annotations

import shutil
import threading

import numpy as np

from ..errors import (
    BudgetExceededError,
    ConfigurationError,
    ConvergenceError,
    JobPreempted,
    NumericalBreakdownError,
    SdcError,
    SimulatedCrashError,
    SingularMatrixError,
    ValidationError,
)
from ..precision.modes import Precision
from ..resilience.policy import backoff
from .job import Job

__all__ = ["PreemptionToken", "Worker"]


class PreemptionToken:
    """Cooperative eviction: fires only where the job is durably resumable.

    Duck-types the crash injector's ``fire(site, **kw)`` hook that the
    checkpoint store already calls around every commit, and raises
    :class:`JobPreempted` **only at ``.post`` sites** — i.e. immediately
    after a checkpoint committed — so an evicted job never loses work
    past its newest durable state.  An inner injector (the soak
    harness's real crash faults) composes underneath.
    """

    def __init__(self, inner=None) -> None:
        self.inner = inner
        self.reason: "str | None" = None
        self._evt = threading.Event()

    def request(self, reason: str) -> None:
        self.reason = reason
        self._evt.set()

    @property
    def requested(self) -> bool:
        return self._evt.is_set()

    def fire(self, site: str, **kw) -> None:
        if self.inner is not None:
            self.inner.fire(site, **kw)
        if self._evt.is_set() and site.endswith(".post"):
            raise JobPreempted(
                "evicted at durable checkpoint",
                reason=self.reason, site=site,
            )


class Worker(threading.Thread):
    """One serving thread; ``service`` provides every shared component."""

    def __init__(self, service, index: int) -> None:
        super().__init__(name=f"serve-worker-{index}", daemon=True)
        self.service = service
        self.index = index
        self.current_job: "Job | None" = None
        self._rng = np.random.default_rng(service.seed + index)
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()

    # -- main loop ---------------------------------------------------------
    def run(self) -> None:
        svc = self.service
        while not self._halt.is_set():
            job = svc.queue.get(timeout=svc.tick)
            if job is None:
                if svc.queue_closed and svc.queue.depth() == 0:
                    return
                continue
            self.current_job = job
            try:
                self._process(job)
            except Exception as exc:  # never let a worker die silently
                svc.breaker.record_failure()
                job.finish("failed", error=exc)
                svc.on_terminal(job)
            finally:
                self.current_job = None

    # -- one job -----------------------------------------------------------
    def _process(self, job: Job) -> None:
        svc = self.service
        job.started = svc.clock()
        job.state = "running"
        svc.admission.job_started()
        svc.reg.touch_worker(self.name)
        # One queue-wait segment per dequeue (requeues refresh the
        # anchor), plus time-to-first-attempt into the SLO sketches the
        # first time the job reaches a worker.
        job.record_event(
            "serve.queue_wait",
            start=job.enqueued - job.epoch,
            duration=max(job.started - job.enqueued, 0.0),
            worker=self.name,
        )
        if job.first_attempt_at is None:
            job.first_attempt_at = job.started
            svc.slo.record_first_attempt(
                job.spec.priority, job.started - job.submitted
            )
        try:
            # Deadline gate at the front of the queue: a job already past
            # its SLO runs degraded or is shed, per policy.
            if job.past_deadline and not job.deadline_missed:
                if not svc.degrade.apply_deadline_miss(job):
                    job.finish("shed", error="deadline passed while queued")
                    svc.on_terminal(job)
                    return
            if svc.overloaded and not job.degradations:
                if not svc.degrade.apply_overload(job):
                    job.finish("shed", error="overload shed")
                    svc.on_terminal(job)
                    return

            # Batching: pack same-shape coalescible companions into one
            # gemm_batched EVD stack.
            if svc.coalescer is not None and svc.coalescer.eligible(job):
                companions = svc.coalescer.companions(svc.queue, job)
                if companions:
                    self._process_batch(job, companions)
                    return

            self._run_with_retries(job)
        finally:
            svc.admission.job_ended()

    def _record_attempt(self, job: Job, t0: float, k: int, outcome: str) -> None:
        """Close attempt ``k``'s lifecycle span with its outcome."""
        job.last_attempt_span = job.record_event(
            "serve.attempt",
            start=t0,
            duration=max(job.now() - t0, 0.0),
            attempt=k,
            worker=self.name,
            outcome=outcome,
            precision=job.precision,
        )

    def _run_with_retries(self, job: Job) -> None:
        svc = self.service
        policy = job.spec.retry
        while True:
            job.attempts += 1
            k = job.attempts
            token = PreemptionToken(inner=svc.crash_for(job))
            job.token = token
            # A checkpointed attempt after a preemption or crash is a
            # *resume* of the same trace: link it to the interrupted
            # attempt so the exporter can draw the flow arrow.
            if job.resume_pending:
                job.resume_pending = False
                job.record_event(
                    "serve.resume", attempt=k, worker=self.name,
                    link_from=job.last_attempt_span,
                )
            t0 = job.now()
            try:
                # SLO deadline, enforced through the wall-clock budget at
                # every attempt boundary.  Once the job has accepted the
                # degraded deadline-missed path it runs to completion —
                # re-raising here would just burn the retry budget.
                if not job.deadline_missed:
                    job.budget.check(iterations=job.attempts - 1)
                res = self._solve(job, token)
            except JobPreempted as exc:
                job.token = None
                job.preemptions += 1
                self._record_attempt(job, t0, k, "preempted")
                job.record_event(
                    "serve.preempt", attempt=k, worker=self.name,
                    reason=exc.reason,
                )
                if exc.reason == "cancel":
                    job.finish("cancelled", error=exc)
                    svc.on_terminal(job)
                elif exc.reason == "deadline":
                    if job.spec.priority in svc.degrade.shed_classes:
                        job.finish("shed", error=exc)
                        svc.on_terminal(job)
                    else:
                        job.deadline_missed = True
                        job.resume_pending = job.spec.checkpointed
                        svc.requeue(job)
                else:
                    job.resume_pending = job.spec.checkpointed
                    svc.requeue(job)
                return
            except SimulatedCrashError as exc:
                # Crash: retry-resume from the committed checkpoint in the
                # same run directory.
                self._record_attempt(job, t0, k, "crash")
                job.resume_pending = job.spec.checkpointed
                if not self._retry(job, policy, exc, kind="crash"):
                    return
            except BudgetExceededError as exc:
                job.deadline_missed = True
                self._record_attempt(job, t0, k, "deadline")
                if not svc.degrade.apply_deadline_miss(job):
                    job.finish("shed", error=exc)
                    svc.on_terminal(job)
                    return
                # Degraded re-run still honors the retry budget; fresh
                # run dir since want_vectors changed the run config.
                self._reset_run_dir(job)
                if not self._retry(job, policy, exc, kind="deadline"):
                    return
            except SdcError as exc:
                # Silent data corruption the driver-side ABFT could not
                # repair: retry at the same precision (the fault is in
                # the data, not the numerics) and surface it as its own
                # retry class.  Must precede NumericalBreakdownError —
                # SdcError subclasses it.
                self._record_attempt(job, t0, k, "sdc")
                job.sdc_retries += 1
                svc.reg.inc(
                    "repro_serve_sdc_retries_total", priority=job.spec.priority
                )
                if not self._retry(job, policy, exc, kind="sdc"):
                    return
            except (
                NumericalBreakdownError, ConvergenceError, SingularMatrixError,
            ) as exc:
                # Numerical: retry-escalate to the next-safer precision.
                self._record_attempt(job, t0, k, "numerical")
                safer = Precision.from_name(job.precision).next_safer
                if safer is None:
                    job.finish("failed", error=exc)
                    svc.on_terminal(job)
                    return
                job.add_degradation(
                    "escalate_precision", "numerical_breakdown",
                    from_precision=job.precision, to_precision=safer.value,
                )
                job.precision = safer.value
                self._reset_run_dir(job)
                if not self._retry(job, policy, exc, kind="numerical"):
                    return
            except (ValidationError, ConfigurationError) as exc:
                self._record_attempt(job, t0, k, "failed")
                job.finish("failed", error=exc)
                svc.on_terminal(job)
                return
            else:
                job.token = None
                svc.breaker.record_success()
                if job.past_deadline:
                    job.deadline_missed = True
                self._record_attempt(job, t0, k, "done")
                job.finish(
                    "done",
                    eigenvalues=res.eigenvalues,
                    eigenvectors=res.eigenvectors,
                )
                svc.on_terminal(job)
                return

    def _retry(self, job: Job, policy, exc, *, kind: str) -> bool:
        """Book-keep one failed attempt; False when the job just died."""
        svc = self.service
        job.token = None
        if job.attempts >= policy.max_attempts:
            job.finish("failed", error=exc)
            svc.on_terminal(job)
            return False
        svc.reg.inc("repro_serve_retries_total", kind=kind)
        delay = backoff(
            job.attempts,
            base=policy.backoff_base, cap=policy.backoff_cap,
            jitter=policy.backoff_jitter, rng=self._rng,
        )
        if delay > 0.0:
            svc.sleep(delay)
        job.record_event(
            "serve.backoff", duration=delay, attempt=job.attempts,
            worker=self.name, retry_kind=kind,
        )
        return True

    def _reset_run_dir(self, job: Job) -> None:
        """Drop a checkpointed job's run dir before a config-changing retry.

        The store pins the run config at ``begin`` and refuses a
        mismatch, so an escalated-precision (or degraded) retry must
        start a fresh directory; crash retries and preemption resumes
        keep it.
        """
        if job.run_dir is not None:
            shutil.rmtree(job.run_dir, ignore_errors=True)

    def _solve(self, job: Job, token: PreemptionToken):
        from ..ckpt.store import CheckpointConfig
        from ..eig.driver import syevd_2stage

        svc = self.service
        kwargs = dict(
            b=job.spec.b, nb=job.spec.nb, method=job.spec.method,
            precision=job.precision, want_vectors=job.want_vectors,
            check_input=False,  # validated once at submission
        )
        if job.spec.abft is not None:
            kwargs["abft"] = job.spec.abft
        if job.spec.faults is not None:
            kwargs["faults"] = job.spec.faults
        if job.spec.checkpointed:
            # Re-running against a directory holding an interrupted run
            # resumes it from the newest committed checkpoint — the same
            # call serves first attempts, crash retries, and
            # post-preemption resumes.
            cfg = CheckpointConfig(
                run_dir=job.run_dir, every=svc.checkpoint_every, crash=token,
                trace=job.trace.to_dict(),
            )
            return syevd_2stage(job.spec.a, checkpoint=cfg, **kwargs)
        res = syevd_2stage(job.spec.a, trace=job.trace, **kwargs)
        if token.requested and token.reason == "cancel":
            # Non-checkpointed jobs have no preemption sites; honor a
            # cancel that raced the run by discarding the result.
            raise JobPreempted("cancelled (result discarded)", reason="cancel")
        return res

    # -- batched path ------------------------------------------------------
    def _process_batch(self, lead: Job, companions: "list[Job]") -> None:
        from .coalesce import evd_stack

        svc = self.service
        jobs = [lead] + companions
        now = svc.clock()
        for job in jobs:
            job.state = "running"
            if job.started is None:
                job.started = now
                # Companions skipped _process: account their queue wait
                # and first-attempt latency here.
                job.record_event(
                    "serve.queue_wait",
                    start=job.enqueued - job.epoch,
                    duration=max(job.started - job.enqueued, 0.0),
                    worker=self.name,
                )
                if job.first_attempt_at is None:
                    job.first_attempt_at = job.started
                    svc.slo.record_first_attempt(
                        job.spec.priority, job.started - job.submitted
                    )
            job.attempts += 1
        t0 = lead.now()
        svc.reg.inc("repro_serve_batches_total")
        svc.reg.set("repro_serve_batch_size", float(len(jobs)))
        try:
            out = evd_stack(
                [j.spec.a for j in jobs],
                engine=svc.batch_engine,
                want_vectors=lead.want_vectors,
            )
        except Exception as exc:
            # The batch ties fates together only on success: the lead
            # falls back to the solo retry path, companions re-enter the
            # queue untouched.
            for job in jobs:
                self._record_attempt(job, t0, job.attempts, "batch_failed")
            for job in companions:
                svc.requeue(job)
            self._retry(lead, lead.spec.retry, exc, kind="batch")
            if not lead.terminal:
                self._run_with_retries(lead)
            return
        svc.breaker.record_success()
        for job, (lam, x) in zip(jobs, out):
            if job.past_deadline:
                job.deadline_missed = True
            self._record_attempt(job, t0, job.attempts, "done")
            job.timeline[-1]["batched"] = True
            job.finish("done", eigenvalues=lam, eigenvectors=x, batched=True)
            svc.on_terminal(job)
