"""Scheduler: the service's control loop.

A single monitor thread ticks a few times a second and applies the
policies that need a global view:

- **Heartbeat** — emits the PR-6 liveness file each tick, so external
  watchdogs (and the admission controller's stall signal) see the pool's
  pulse even while every worker is deep inside a solve.
- **Deadline preemption** — a running *checkpointed* job whose SLO
  deadline has passed is asked to yield at its next durable checkpoint
  (``token.request("deadline")``); the worker then re-queues it degraded
  or sheds it per policy.  Non-checkpointed jobs cannot be preempted
  mid-run; their deadline is enforced at attempt boundaries instead.
- **Priority preemption** — when an ``interactive`` job is waiting and
  every worker is busy, the lowest-class running checkpointed job is
  evicted to its checkpoint (``token.request("priority")``) and resumes
  later, bitwise-identically, from where it left off.
- **Overload shedding** — when queue fullness crosses the degradation
  policy's threshold, queued jobs of the shed classes are drained and
  terminated with outcome ``"shed"``, lowest class first, and the
  service enters overload mode (remaining jobs may run
  precision-downgraded until pressure clears).
"""

from __future__ import annotations

import threading

from .job import priority_rank

__all__ = ["Scheduler"]


class Scheduler(threading.Thread):
    def __init__(self, service, *, interval: float = 0.05) -> None:
        super().__init__(name="serve-scheduler", daemon=True)
        self.service = service
        self.interval = interval
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                self.tick()
            except Exception:  # a sick control loop must not kill serving
                self.service.reg.inc("repro_serve_scheduler_errors_total")

    def tick(self) -> None:
        svc = self.service
        if svc.heartbeat is not None:
            svc.heartbeat.beat(svc.reg)
        self._enforce_deadlines()
        self._preempt_for_priority()
        self._manage_overload()
        svc.reg.set("repro_serve_queue_depth", float(svc.queue.depth()))
        svc.reg.set("repro_serve_queue_fullness", svc.queue.fullness())

    # -- deadline-based preemption ----------------------------------------
    def _enforce_deadlines(self) -> None:
        for worker in self.service.workers:
            job = worker.current_job
            token = job.token if job is not None else None
            if (
                job is not None
                and token is not None
                and job.spec.checkpointed
                and job.past_deadline
                and not job.deadline_missed
                and not token.requested
            ):
                token.request("deadline")
                self.service.reg.inc(
                    "repro_serve_preemptions_total", reason="deadline"
                )

    # -- priority-based preemption ----------------------------------------
    def _preempt_for_priority(self) -> None:
        svc = self.service
        depth = svc.queue.depth_by_class()
        if depth.get("interactive", 0) == 0:
            return
        # Evict the lowest-priority running checkpointed job, if any
        # worker is holding one while interactive work waits.
        victim_token, victim_rank = None, -1
        for worker in svc.workers:
            job = worker.current_job
            token = job.token if job is not None else None
            if (
                job is None
                or token is None
                or not job.spec.checkpointed
                or token.requested
                or job.spec.priority == "interactive"
            ):
                continue
            rank = priority_rank(job.spec.priority)
            if rank > victim_rank:
                victim_token, victim_rank = token, rank
        if victim_token is not None:
            victim_token.request("priority")
            svc.reg.inc("repro_serve_preemptions_total", reason="priority")

    # -- overload ----------------------------------------------------------
    def _manage_overload(self) -> None:
        svc = self.service
        full = svc.queue.fullness()
        if svc.degrade.overloaded(full):
            if not svc.overloaded:
                svc.overloaded = True
                svc.reg.inc("repro_serve_overload_transitions_total")
            for cls in svc.degrade.shed_order():
                for job in svc.queue.drain_class(cls):
                    svc.finish(job, "shed", error=f"overload shed (class={cls})")
        elif svc.overloaded and full < svc.degrade.overload_threshold / 2.0:
            # Hysteresis: leave overload mode only once pressure clearly
            # cleared, so the mode doesn't flap at the threshold.
            svc.overloaded = False
