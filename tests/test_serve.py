"""Tests for the EVD serving layer (``repro.serve``).

Unit tests for the queue/breaker/degradation policies, then end-to-end
service tests exercising the robustness paths: crash retry-resume,
checkpoint-backed preemption (bitwise-identical), deadline degradation,
backpressure, cancellation, coalesced batching, and the soak harness.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from conftest import random_symmetric
from repro.errors import AdmissionError, NumericalBreakdownError
from repro.serve import (
    PRIORITIES,
    BoundedJobQueue,
    CircuitBreaker,
    DegradationPolicy,
    EvdService,
    JobSpec,
    RetryPolicy,
    cheaper_precision,
    evd_stack,
)
from repro.serve.job import Job
from repro.serve.policy import AdmissionController


def _spec(rng, n=8, **kw):
    return JobSpec(a=random_symmetric(n, rng), **kw)


def _job(rng, n=8, **kw):
    return Job(_spec(rng, n, **kw), clock=time.monotonic)


# ---------------------------------------------------------------------------
# queue
# ---------------------------------------------------------------------------
class TestBoundedJobQueue:
    def test_priority_then_fifo_order(self, rng):
        q = BoundedJobQueue(capacity=8)
        batch = _job(rng, priority="batch")
        std = _job(rng, priority="standard")
        inter = _job(rng, priority="interactive")
        for job in (batch, std, inter):
            q.put(job)
        assert [q.get().spec.priority for _ in range(3)] == [
            "interactive", "standard", "batch",
        ]

    def test_reject_backpressure_raises_with_retry_after(self, rng):
        q = BoundedJobQueue(capacity=1, retry_after=0.5)
        q.put(_job(rng))
        with pytest.raises(AdmissionError) as ei:
            q.put(_job(rng))
        assert ei.value.reason == "queue_full"
        assert ei.value.retry_after == 0.5

    def test_block_backpressure_times_out(self, rng):
        q = BoundedJobQueue(capacity=1, backpressure="block")
        q.put(_job(rng))
        with pytest.raises(AdmissionError) as ei:
            q.put(_job(rng), timeout=0.05)
        assert ei.value.reason == "queue_full"

    def test_requeue_bypasses_capacity(self, rng):
        q = BoundedJobQueue(capacity=1)
        first = _job(rng)
        q.put(first)
        preempted = _job(rng)
        q.requeue(preempted)  # must not raise despite the full queue
        assert q.depth() == 2

    def test_requeued_job_keeps_seniority(self, rng):
        q = BoundedJobQueue(capacity=8)
        old = _job(rng, priority="standard")
        new = _job(rng, priority="standard")
        q.put(new)
        q.requeue(old)  # older seq re-enters ahead of newer arrival
        assert q.get() is old

    def test_lazy_drop_of_cancelled(self, rng):
        q = BoundedJobQueue(capacity=4)
        job = _job(rng)
        q.put(job)
        job.finish("cancelled", error="test")
        assert q.get(timeout=0.01) is None

    def test_drain_class(self, rng):
        q = BoundedJobQueue(capacity=8)
        jobs = [_job(rng, priority=p)
                for p in ("batch", "standard", "batch", "interactive")]
        for j in jobs:
            q.put(j)
        drained = q.drain_class("batch")
        assert len(drained) == 2
        assert all(j.spec.priority == "batch" for j in drained)
        assert q.depth() == 2

    def test_take_matching_preserves_rest(self, rng):
        q = BoundedJobQueue(capacity=8)
        small = [_job(rng, n=4, coalescible=True) for _ in range(3)]
        big = _job(rng, n=16)
        for j in small + [big]:
            q.put(j)
        taken = q.take_matching(
            lambda j: j.spec.a.shape[0] == 4, limit=2)
        assert len(taken) == 2
        assert q.depth() == 2

    def test_closed_queue_rejects(self, rng):
        q = BoundedJobQueue(capacity=2)
        q.close()
        with pytest.raises(AdmissionError) as ei:
            q.put(_job(rng))
        assert ei.value.reason == "shutdown"


# ---------------------------------------------------------------------------
# circuit breaker + admission
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        t = [0.0]
        br = CircuitBreaker(failure_threshold=3, cooldown=10.0,
                            clock=lambda: t[0])
        assert br.allow()
        for _ in range(3):
            br.record_failure()
        assert br.state == "open"
        assert not br.allow()
        assert br.retry_after() == pytest.approx(10.0)

    def test_half_open_single_probe_then_close(self):
        t = [0.0]
        br = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                            clock=lambda: t[0])
        br.record_failure()
        t[0] = 6.0
        assert br.state == "half_open"
        assert br.allow()       # the probe
        assert not br.allow()   # concurrent admit rejected
        br.record_success()
        assert br.state == "closed"

    def test_half_open_failure_reopens(self):
        t = [0.0]
        br = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                            clock=lambda: t[0])
        br.record_failure()
        t[0] = 6.0
        assert br.allow()
        br.record_failure()
        assert br.state == "open"

    def test_success_resets_failure_count(self):
        br = CircuitBreaker(failure_threshold=2)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"


class TestAdmissionController:
    def test_shutdown_rejects(self):
        ac = AdmissionController()
        ac.begin_shutdown()
        with pytest.raises(AdmissionError) as ei:
            ac.admit()
        assert ei.value.reason == "shutdown"

    def test_open_breaker_rejects_with_retry_after(self):
        t = [0.0]
        br = CircuitBreaker(failure_threshold=1, cooldown=7.0,
                            clock=lambda: t[0])
        ac = AdmissionController(breaker=br)
        br.record_failure()
        with pytest.raises(AdmissionError) as ei:
            ac.admit()
        assert ei.value.reason == "circuit_open"
        assert ei.value.retry_after == pytest.approx(7.0)

    def test_stall_gate_needs_active_jobs(self):
        class StalledReg:
            def progress_age(self):
                return 99.0

        ac = AdmissionController(registry=StalledReg(), stall_after=30.0)
        ac.admit()  # idle pool: stall signal meaningless, admit
        ac.job_started()
        with pytest.raises(AdmissionError) as ei:
            ac.admit()
        assert ei.value.reason == "stalled"
        ac.job_ended()
        ac.admit()


# ---------------------------------------------------------------------------
# degradation policy
# ---------------------------------------------------------------------------
class TestDegradation:
    def test_cheaper_precision_ladder(self):
        assert cheaper_precision("fp64") == "fp32"
        assert cheaper_precision("fp32") == "tf32_tc"
        assert cheaper_precision("fp16_tc") is None

    def test_overload_sheds_batch_class(self, rng):
        pol = DegradationPolicy()
        assert pol.apply_overload(_job(rng, priority="batch")) is False

    def test_overload_downgrades_precision(self, rng):
        pol = DegradationPolicy()
        job = _job(rng, priority="standard", precision="fp32")
        assert pol.apply_overload(job) is True
        assert job.precision == "tf32_tc"
        assert job.degradations[0]["kind"] == "downgrade_precision"
        assert job.spec.precision == "fp32"  # client's spec untouched

    def test_overload_never_downgrades_checkpointed(self, rng):
        pol = DegradationPolicy()
        job = _job(rng, priority="standard", precision="fp32",
                   checkpointed=True)
        assert pol.apply_overload(job) is True
        assert job.precision == "fp32"

    def test_deadline_miss_drops_vectors(self, rng):
        pol = DegradationPolicy()
        job = _job(rng, priority="standard")
        assert pol.apply_deadline_miss(job) is True
        assert job.deadline_missed
        assert not job.want_vectors
        assert job.degradations[0]["kind"] == "drop_vectors"


# ---------------------------------------------------------------------------
# coalescer
# ---------------------------------------------------------------------------
class TestEvdStack:
    def test_matches_dense_eigh(self, rng):
        mats = [random_symmetric(12, rng) for _ in range(4)]
        out = evd_stack(mats)
        assert len(out) == 4
        for a, (lam, x) in zip(mats, out):
            np.testing.assert_allclose(lam, np.linalg.eigvalsh(a),
                                       atol=1e-8)
            np.testing.assert_allclose(a @ x, x @ np.diag(lam), atol=1e-8)
            np.testing.assert_allclose(x.T @ x, np.eye(12), atol=1e-10)

    def test_rejects_mixed_shapes(self, rng):
        with pytest.raises(ValueError, match="share one shape"):
            evd_stack([random_symmetric(8, rng), random_symmetric(9, rng)])

    def test_values_only(self, rng):
        mats = [random_symmetric(6, rng) for _ in range(2)]
        for lam, x in evd_stack(mats, want_vectors=False):
            assert x is None
            assert lam.shape == (6,)


# ---------------------------------------------------------------------------
# end-to-end service
# ---------------------------------------------------------------------------
def _service(tmp_path, **kw):
    kw.setdefault("workers", 1)
    kw.setdefault("spool_dir", str(tmp_path / "spool"))
    kw.setdefault("scheduler_interval", 0.01)
    kw.setdefault("tick", 0.01)
    return EvdService(**kw)


class TestServiceBasic:
    def test_mixed_burst_all_terminal_and_accurate(self, rng, tmp_path):
        with _service(tmp_path, workers=2) as svc:
            mats, ids = [], []
            for i, prio in enumerate(PRIORITIES):
                a = random_symmetric(20 + 4 * i, rng)
                mats.append(a)
                ids.append(svc.submit(a, priority=prio, tag=f"t{i}"))
            for a, jid in zip(mats, ids):
                res = svc.result(jid, timeout=60.0)
                assert res is not None and res.outcome == "done"
                np.testing.assert_allclose(
                    res.eigenvalues, np.linalg.eigvalsh(a), atol=1e-4)
        # manifest has one line per job
        lines = [json.loads(l) for l in open(svc.manifest_path)]
        assert len(lines) == 3
        assert {l["state"] for l in lines} == {"done"}

    def test_result_returns_after_the_job_is_counted(self, rng, tmp_path):
        # The worker records a job before result() wakes, so the counts
        # read right after it always include the job.
        with _service(tmp_path, workers=2) as svc:
            for i in range(1, 31):
                jid = svc.submit(random_symmetric(8, rng))
                assert svc.result(jid, timeout=60.0).ok
                assert svc.stats()["outcomes"] == {"done": i}
                assert sum(r["jobs"] for r in svc.latency_rows()) == i

    def test_submit_validates_once(self, rng, tmp_path):
        from repro.errors import ValidationError
        with _service(tmp_path) as svc:
            bad = random_symmetric(8, rng)
            bad[0, 0] = np.nan
            with pytest.raises(ValidationError):
                svc.submit(bad)
            with pytest.raises(AdmissionError) as ei:
                svc.submit(random_symmetric(8, rng), priority="vip")
            assert ei.value.reason == "invalid"

    @pytest.mark.parametrize("bad", [{"method": "qr"}, {"precision": "fp8"}])
    def test_submit_refuses_names_it_cannot_run(self, rng, tmp_path, bad):
        # Refused at the door: no job is created, so none fails later in
        # a worker.
        with _service(tmp_path) as svc:
            with pytest.raises(AdmissionError) as ei:
                svc.submit(random_symmetric(16, rng), b=8, **bad)
            assert ei.value.reason == "invalid"
            assert svc.stats()["jobs_total"] == 0

    def test_submit_after_shutdown_rejected(self, rng, tmp_path):
        svc = _service(tmp_path).start()
        svc.shutdown()
        with pytest.raises(AdmissionError) as ei:
            svc.submit(random_symmetric(8, rng))
        assert ei.value.reason == "shutdown"

    def test_queue_full_backpressure(self, rng, tmp_path):
        gate = threading.Event()
        with _service(tmp_path, queue_capacity=1) as svc:
            svc.fault_factory = (
                lambda job: gate.wait(timeout=30.0) and None
                if job.spec.tag == "blocker" else None
            )
            blocker = svc.submit(random_symmetric(8, rng), tag="blocker",
                                 checkpointed=True)
            # Give the worker time to occupy itself with the blocker.
            deadline = time.monotonic() + 5.0
            while svc.job(blocker).state == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.005)
            queued = svc.submit(random_symmetric(8, rng), tag="waiter")
            with pytest.raises(AdmissionError) as ei:
                svc.submit(random_symmetric(8, rng), tag="overflow")
            assert ei.value.reason == "queue_full"
            assert ei.value.retry_after > 0
            gate.set()
            assert svc.result(blocker, timeout=60.0).ok
            assert svc.result(queued, timeout=60.0).ok

    def test_cancel_queued_job(self, rng, tmp_path):
        gate = threading.Event()
        with _service(tmp_path) as svc:
            svc.fault_factory = (
                lambda job: gate.wait(timeout=30.0) and None
                if job.spec.tag == "blocker" else None
            )
            blocker = svc.submit(random_symmetric(8, rng), tag="blocker",
                                 checkpointed=True)
            victim = svc.submit(random_symmetric(8, rng), tag="victim")
            assert svc.cancel(victim)
            gate.set()
            res = svc.result(victim, timeout=60.0)
            assert res.outcome == "cancelled"
            assert svc.result(blocker, timeout=60.0).ok
            assert not svc.cancel(victim)  # already terminal

    def test_coalesced_batch(self, rng, tmp_path):
        gate, started = threading.Event(), threading.Event()

        def hold_blocker(job):
            if job.spec.tag == "blocker":
                started.set()
                gate.wait(timeout=30.0)

        with _service(tmp_path) as svc:
            svc.fault_factory = hold_blocker
            blocker = svc.submit(random_symmetric(8, rng), tag="blocker",
                                 checkpointed=True)
            # The single worker holds the blocker before the coalescible
            # jobs are queued, so all three wait together for one batch.
            assert started.wait(timeout=30.0)
            mats = [random_symmetric(16, rng) for _ in range(3)]
            ids = [svc.submit(a, coalescible=True, priority="interactive")
                   for a in mats]
            gate.set()
            results = [svc.result(j, timeout=60.0) for j in ids]
            assert svc.result(blocker, timeout=60.0).ok
        assert all(r.outcome == "done" for r in results)
        assert all(r.batched for r in results)
        for a, r in zip(mats, results):
            np.testing.assert_allclose(
                r.eigenvalues, np.linalg.eigvalsh(a), atol=1e-8)

    def test_bench_rows_have_percentiles(self, rng, tmp_path):
        with _service(tmp_path) as svc:
            for prio in ("interactive", "standard"):
                jid = svc.submit(random_symmetric(12, rng), priority=prio)
                assert svc.result(jid, timeout=60.0).ok
        # After shutdown every worker has recorded its terminal job.
        rows = svc.latency_rows()
        assert {row["key"] for row in rows} == {"serve-interactive", "serve-standard"}
        for row in rows:
            assert row["jobs"] == 1
            assert row["p50"] > 0 and row["p99"] >= row["p50"]
            # One sample: the sketch's quantiles are that sample's value.
            sketch = svc.reg.histogram(
                "repro_serve_latency_seconds", priority=row["priority"])
            assert row["p50"] == row["p99"] == sketch.max
            assert "wall" not in row


    def test_latency_rows_empty_until_a_job_ends(self, tmp_path):
        # The soak fails on "no latency rows"; a fresh service has none.
        with _service(tmp_path) as svc:
            assert svc.latency_rows() == []

    def test_latency_rows_count_every_terminal_job(self, rng, tmp_path):
        gate = threading.Event()
        with _service(tmp_path) as svc:
            svc.fault_factory = (
                lambda job: gate.wait(timeout=30.0) and None
                if job.spec.tag == "blocker" else None
            )
            blocker = svc.submit(random_symmetric(8, rng), tag="blocker",
                                 checkpointed=True)
            victim = svc.submit(random_symmetric(8, rng), tag="victim")
            assert svc.cancel(victim)
            gate.set()
            assert svc.result(blocker, timeout=60.0).ok
        assert svc.stats()["outcomes"] == {"done": 1, "cancelled": 1}
        (row,) = svc.latency_rows()
        assert row["key"] == "serve-standard" and row["jobs"] == 2

    def test_latency_rows_read_the_prometheus_series(self, rng, tmp_path):
        from repro.obs.live import parse_prometheus

        with _service(tmp_path) as svc:
            for _ in range(3):
                jid = svc.submit(random_symmetric(12, rng), priority="batch")
                assert svc.result(jid, timeout=60.0).ok
        (row,) = svc.latency_rows()
        with open(tmp_path / "spool" / "metrics.prom") as fh:
            series = parse_prometheus(fh.read())
        lat = 'repro_serve_latency_seconds{priority="batch"%s}'
        qwait = 'repro_serve_queue_wait_seconds{priority="batch"%s}'
        assert series['repro_serve_latency_seconds_count{priority="batch"}'] \
            == row["jobs"] == 3
        for col, name, q in (("p50", lat, "0.5"), ("p99", lat, "0.99"),
                             ("queue_wait_p50", qwait, "0.5"),
                             ("queue_wait_p99", qwait, "0.99")):
            # The exposition prints six significant digits.
            assert series[name % f',quantile="{q}"'] == pytest.approx(
                row[col], rel=1e-5)


class TestServiceResilience:
    def test_crash_retry_resumes_bitwise(self, rng, tmp_path):
        from repro.eig.driver import syevd_2stage
        from repro.resilience.crash import CrashFaultSpec, CrashInjector

        a = random_symmetric(32, rng)
        with _service(tmp_path) as svc:
            svc.fault_factory = (
                lambda job: CrashInjector(CrashFaultSpec(
                    site="ckpt.save.*.post", call_index=1, kind="kill"))
                if job.attempts == 1 else None
            )
            jid = svc.submit(a, b=4, checkpointed=True,
                             retry=RetryPolicy(max_attempts=3,
                                               backoff_base=0.001))
            res = svc.result(jid, timeout=120.0)
        assert res.outcome == "done"
        assert res.attempts == 2  # crashed once, resumed once
        ref = syevd_2stage(a, b=4, precision="fp32",
                           checkpoint=str(tmp_path / "ref"))
        assert np.array_equal(res.eigenvalues, ref.eigenvalues)
        assert np.array_equal(res.eigenvectors, ref.eigenvectors)

    def test_crash_exhausts_retries_to_failed(self, rng, tmp_path):
        from repro.resilience.crash import CrashFaultSpec, CrashInjector

        with _service(tmp_path) as svc:
            svc.fault_factory = lambda job: CrashInjector(CrashFaultSpec(
                site="ckpt.save.*.post", call_index=0, kind="kill"))
            jid = svc.submit(random_symmetric(16, rng), b=4,
                             checkpointed=True,
                             retry=RetryPolicy(max_attempts=2,
                                               backoff_base=0.001))
            res = svc.result(jid, timeout=120.0)
        assert res.outcome == "failed"
        assert res.attempts == 2
        assert res.error_type == "SimulatedCrashError"

    def test_numerical_breakdown_escalates_precision(self, rng, tmp_path):
        class BreakOnce:
            def __init__(self):
                self.fired = False

            def fire(self, site, **kw):
                if not self.fired and site.endswith(".post"):
                    self.fired = True
                    raise NumericalBreakdownError("injected panel blowup")

        with _service(tmp_path) as svc:
            svc.fault_factory = (
                lambda job: BreakOnce() if job.attempts == 1 else None
            )
            jid = svc.submit(random_symmetric(24, rng), b=4,
                             precision="fp32", checkpointed=True,
                             retry=RetryPolicy(max_attempts=3,
                                               backoff_base=0.001))
            res = svc.result(jid, timeout=120.0)
        assert res.outcome == "degraded"  # recorded escalation
        assert res.precision_used == "fp64"
        kinds = [d["kind"] for d in res.degradations]
        assert kinds == ["escalate_precision"]

    def test_priority_preemption_bitwise_identical(self, rng, tmp_path):
        from repro.eig.driver import syevd_2stage

        a = random_symmetric(48, rng)
        with _service(tmp_path, coalesce=False) as svc:
            batch = svc.submit(a, b=4, priority="batch", checkpointed=True,
                               tag="victim")
            deadline = time.monotonic() + 10.0
            while svc.job(batch).state == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.002)
            inter = svc.submit(random_symmetric(12, rng),
                               priority="interactive", tag="urgent")
            res_i = svc.result(inter, timeout=120.0)
            res_b = svc.result(batch, timeout=120.0)
        assert res_i.outcome == "done"
        assert res_b.ok
        assert res_b.preemptions >= 1
        # The interactive job jumped the line while the batch job sat
        # evicted at its checkpoint.
        ref = syevd_2stage(a, b=4, precision="fp32",
                           checkpoint=str(tmp_path / "ref"))
        assert np.array_equal(res_b.eigenvalues, ref.eigenvalues)
        assert np.array_equal(res_b.eigenvectors, ref.eigenvectors)

    def test_cancel_running_checkpointed_job(self, rng, tmp_path):
        with _service(tmp_path) as svc:
            jid = svc.submit(random_symmetric(48, rng), b=4,
                             checkpointed=True)
            deadline = time.monotonic() + 10.0
            while svc.job(jid).token is None:
                assert time.monotonic() < deadline
                time.sleep(0.002)
            assert svc.cancel(jid)
            res = svc.result(jid, timeout=120.0)
        assert res.outcome == "cancelled"

    def test_deadline_missed_job_degraded_not_lost(self, rng, tmp_path):
        with _service(tmp_path) as svc:
            jid = svc.submit(random_symmetric(48, rng), b=4,
                             priority="standard", checkpointed=True,
                             deadline_seconds=0.01)
            res = svc.result(jid, timeout=120.0)
        assert res is not None
        assert res.outcome in ("degraded", "shed")
        if res.outcome == "degraded":
            assert res.deadline_missed
            assert res.eigenvalues is not None

    def test_overload_sheds_batch_class(self, rng, tmp_path):
        gate = threading.Event()
        with _service(tmp_path, queue_capacity=5) as svc:
            svc.fault_factory = (
                lambda job: gate.wait(timeout=30.0) and None
                if job.spec.tag == "blocker" else None
            )
            blocker = svc.submit(random_symmetric(8, rng), tag="blocker",
                                 checkpointed=True)
            deadline = time.monotonic() + 5.0
            while svc.job(blocker).state == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.005)
            shed_ids = [svc.submit(random_symmetric(8, rng),
                                   priority="batch", tag=f"shed-{i}")
                        for i in range(4)]  # fullness 4/5 >= 0.8
            results = [svc.result(j, timeout=30.0) for j in shed_ids]
            gate.set()
            assert svc.result(blocker, timeout=60.0).ok
        assert all(r is not None and r.outcome == "shed" for r in results)


class TestSoakHarness:
    def test_soak_cli_passes(self, tmp_path, capsys):
        from repro.serve.__main__ import main

        rc = main([
            "--jobs", "9", "--workers", "2", "--n", "32",
            "--queue-cap", "16", "--crash-one", "--seed", "7",
            "--spool", str(tmp_path / "spool"),
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "soak ok" in out
        assert "serve-" in out and "p99=" in out


    def test_soak_fails_without_latency_rows(self, tmp_path, capsys,
                                             monkeypatch):
        from repro.serve.__main__ import main

        monkeypatch.setattr(EvdService, "latency_rows", lambda self: [])
        rc = main([
            "--jobs", "3", "--workers", "1", "--n", "16", "--seed", "7",
            "--spool", str(tmp_path / "spool"),
        ])
        captured = capsys.readouterr()
        assert rc == 1, captured.out
        assert "SOAK FAIL: no latency rows" in captured.err
        assert "soak ok" not in captured.out


class TestBulgeVariantServing:
    def test_wavefront_job_end_to_end(self, rng, tmp_path):
        # Stage 2 of every job is the one LAPACK band reduction; the
        # manifest line carries neither a variant nor a solver knob.
        a = random_symmetric(24, rng)
        with _service(tmp_path) as svc:
            jid = svc.submit(a, b=4)
            res = svc.result(jid, timeout=60.0)
            assert res is not None and res.outcome == "done"
            np.testing.assert_allclose(
                res.eigenvalues, np.linalg.eigvalsh(a), atol=1e-4)
        lines = [json.loads(l) for l in open(svc.manifest_path)]
        assert "bulge_variant" not in lines[0]
        assert "tridiag_solver" not in lines[0]
