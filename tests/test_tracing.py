"""Tests for end-to-end request tracing (``repro.obs.tracing``).

The tentpole contract: every served job carries one causal trace —
minted at submit, threaded through admission, queue wait, attempts,
preemption, backoff, and *across checkpoint resume* — and the whole
soak renders as a single Chrome-trace timeline with per-worker lanes
and flow arrows.  Covers:

- TraceContext construction, immutability, (de)serialization, coercion;
- lifecycle_span: emits into an active collector, no-op when off;
- the continuity checker's invariants (positive + negative cases);
- single-job, preempted, and crash-resumed jobs keeping one trace id
  end to end through the serve manifest;
- trace persistence in the PR-4 run-dir header and rehydration by
  ``repro.ckpt.driver.resume``;
- SLO accounting: good/bad tallies, burn rate, deadline counters, TTFA,
  and the gauges landing in the Prometheus exposition;
- the serve Chrome exporter (lanes, flows, schema) and the span-level
  flow arrows in ``to_chrome_trace``;
- the ``python -m repro.obs trace`` subcommand and queue-wait bench
  columns / per-tag launch counts (satellites).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from conftest import random_symmetric
from repro.obs import spans as obs_spans
from repro.obs.analytics import serve_trace_to_chrome, to_chrome_trace
from repro.obs.live import MetricsRegistry
from repro.obs.live.sinks import parse_prometheus, render_prometheus
from repro.obs.tracing import (
    TraceContext,
    check_trace_continuity,
    lifecycle_span,
    load_serve_manifest,
    render_trace_summary,
)
from repro.serve import EvdService, JobSpec, RetryPolicy
from repro.serve.job import Job
from repro.serve.slo import DEFAULT_TARGET, SloPolicy, SloTracker


# ---------------------------------------------------------------------------
# TraceContext
# ---------------------------------------------------------------------------
class TestTraceContext:
    def test_new_mints_root(self):
        ctx = TraceContext.new()
        assert len(ctx.trace_id) == 16
        assert len(ctx.span_id) == 16
        assert ctx.parent_id is None

    def test_child_extends_same_trace(self):
        root = TraceContext.new()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_immutable(self):
        ctx = TraceContext.new()
        with pytest.raises(AttributeError):
            ctx.trace_id = "x"

    def test_dict_round_trip(self):
        child = TraceContext.new().child()
        back = TraceContext.from_dict(child.to_dict())
        assert back == child
        root = TraceContext.new()
        assert "parent_id" not in root.to_dict()
        assert TraceContext.from_dict(root.to_dict()) == root

    def test_coerce(self):
        ctx = TraceContext.new()
        assert TraceContext.coerce(ctx) is ctx
        assert TraceContext.coerce(ctx.to_dict()) == ctx
        assert TraceContext.coerce(None) is None
        assert TraceContext.coerce({}) is None
        with pytest.raises(TypeError):
            TraceContext.coerce(42)

    def test_span_meta_carries_ids(self):
        child = TraceContext.new().child()
        meta = child.span_meta()
        assert meta == {
            "trace_id": child.trace_id,
            "span_id": child.span_id,
            "parent_id": child.parent_id,
        }


# ---------------------------------------------------------------------------
# lifecycle_span
# ---------------------------------------------------------------------------
class TestLifecycleSpan:
    def test_noop_without_collector(self):
        assert obs_spans._active is None
        lifecycle_span("serve.admit", trace=TraceContext.new())  # no raise

    def test_emits_finished_span_with_trace_meta(self):
        ctx = TraceContext.new().child()
        with obs_spans.collect() as session:
            lifecycle_span(
                "serve.attempt", 0.25, trace=ctx, worker="w1",
                job="job-1", attempt=2,
            )
        spans = [s for s in session.spans if s.name == "serve.attempt"]
        assert len(spans) == 1
        s = spans[0]
        assert s.duration == 0.25
        assert s.start >= 0.0
        assert s.meta["trace_id"] == ctx.trace_id
        assert s.meta["span_id"] == ctx.span_id
        assert s.meta["parent_id"] == ctx.parent_id
        assert s.meta["worker"] == "w1"
        assert s.meta["job"] == "job-1"
        assert s.meta["attempt"] == 2


# ---------------------------------------------------------------------------
# continuity checker (synthetic records)
# ---------------------------------------------------------------------------
def _record(job="job-1", trace=None, timeline=(), **kw):
    rec = {
        "kind": "serve_job",
        "job": job,
        "state": kw.pop("state", "done"),
        "preemptions": kw.pop("preemptions", 0),
        "trace": trace,
        "timeline": list(timeline),
    }
    rec.update(kw)
    return rec


def _ok_timeline(root="r0"):
    return [
        {"name": "serve.admit", "t": 0.0, "dur": 0.0,
         "span_id": "s1", "parent_id": root},
        {"name": "serve.queue_wait", "t": 0.0, "dur": 0.01,
         "span_id": "s2", "parent_id": root},
        {"name": "serve.attempt", "t": 0.01, "dur": 0.1, "attempt": 1,
         "span_id": "s3", "parent_id": root, "worker": "w0"},
        {"name": "serve.result", "t": 0.11, "dur": 0.0,
         "span_id": "s4", "parent_id": root},
    ]


class TestContinuityChecker:
    def test_clean_records_pass(self):
        recs = [_record(trace={"trace_id": "t1", "span_id": "r0"},
                        timeline=_ok_timeline())]
        assert check_trace_continuity(recs) == []

    def test_missing_trace_flagged(self):
        problems = check_trace_continuity([_record(trace=None)])
        assert problems and "missing trace" in problems[0]

    def test_duplicate_trace_id_flagged(self):
        shared = {"trace_id": "t1", "span_id": "r0"}
        recs = [
            _record(job="job-1", trace=dict(shared), timeline=_ok_timeline()),
            _record(job="job-2", trace=dict(shared), timeline=_ok_timeline()),
        ]
        assert any("already used" in p for p in check_trace_continuity(recs))

    def test_missing_lifecycle_events_flagged(self):
        recs = [_record(trace={"trace_id": "t1", "span_id": "r0"},
                        timeline=_ok_timeline()[:1])]
        problems = check_trace_continuity(recs)
        assert any("serve.attempt" in p for p in problems)
        assert any("serve.result" in p for p in problems)

    def test_cancelled_while_queued_is_exempt(self):
        recs = [_record(state="cancelled",
                        trace={"trace_id": "t1", "span_id": "r0"},
                        timeline=_ok_timeline()[:1])]
        assert check_trace_continuity(recs) == []

    def test_orphan_parent_flagged(self):
        tl = _ok_timeline()
        tl[2]["parent_id"] = "not-a-span"
        recs = [_record(trace={"trace_id": "t1", "span_id": "r0"},
                        timeline=tl)]
        assert any("not in trace" in p for p in check_trace_continuity(recs))

    def test_preempted_without_resume_flagged(self):
        recs = [_record(preemptions=1,
                        trace={"trace_id": "t1", "span_id": "r0"},
                        timeline=_ok_timeline())]
        problems = check_trace_continuity(recs)
        assert any("serve.preempt" in p for p in problems)
        assert any("serve.resume" in p for p in problems)

    def test_resume_must_link_to_prior_attempt(self):
        tl = _ok_timeline()
        tl.insert(3, {"name": "serve.resume", "t": 0.1, "dur": 0.0,
                      "span_id": "s9", "parent_id": "r0",
                      "link_from": "bogus"})
        recs = [_record(trace={"trace_id": "t1", "span_id": "r0"},
                        timeline=tl)]
        assert any("not a prior attempt" in p
                   for p in check_trace_continuity(recs))
        tl[3]["link_from"] = "s3"
        # forward-linked is fine: the checker accepts any attempt span id
        tl2 = list(tl)
        assert not any("link" in p for p in check_trace_continuity(
            [_record(trace={"trace_id": "t1", "span_id": "r0"},
                     timeline=tl2)]))

    def test_summary_renders_verdict(self):
        recs = [_record(wall=0.5, priority="batch", attempts=1,
                        trace={"trace_id": "t1", "span_id": "r0"},
                        timeline=_ok_timeline())]
        out = render_trace_summary(recs)
        assert "trace continuity: ok" in out
        assert "attempt[1]" in out
        out_bad = render_trace_summary([_record(trace=None)])
        assert "continuity problem" in out_bad


# ---------------------------------------------------------------------------
# end-to-end: the service threads one trace per job
# ---------------------------------------------------------------------------
def _service(tmp_path, **kw):
    kw.setdefault("workers", 1)
    kw.setdefault("spool_dir", str(tmp_path / "spool"))
    kw.setdefault("scheduler_interval", 0.01)
    kw.setdefault("tick", 0.01)
    return EvdService(**kw)


class TestServeTracing:
    def test_single_job_trace_lifecycle(self, rng, tmp_path):
        with _service(tmp_path) as svc:
            jid = svc.submit(random_symmetric(12, rng), tag="one")
            res = svc.result(jid, timeout=60.0)
        assert res.outcome == "done"
        records = load_serve_manifest(svc.spool_dir)
        assert len(records) == 1
        rec = records[0]
        assert check_trace_continuity(records) == []
        names = [ev["name"] for ev in rec["timeline"]]
        assert names[0] == "serve.admit"
        assert "serve.queue_wait" in names
        assert "serve.attempt" in names
        assert names[-1] == "serve.result"
        # every event is a child of the job's root span
        root = rec["trace"]["span_id"]
        assert all(ev["parent_id"] == root for ev in rec["timeline"])

    def test_preempted_job_resumes_on_same_trace(self, rng, tmp_path):
        with _service(tmp_path, coalesce=False) as svc:
            batch = svc.submit(random_symmetric(48, rng), b=4,
                               priority="batch", checkpointed=True)
            deadline = time.monotonic() + 10.0
            while svc.job(batch).state == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.002)
            inter = svc.submit(random_symmetric(12, rng),
                               priority="interactive")
            assert svc.result(inter, timeout=120.0).outcome == "done"
            res = svc.result(batch, timeout=120.0)
        assert res.ok and res.preemptions >= 1
        records = load_serve_manifest(svc.spool_dir)
        assert check_trace_continuity(records) == []
        rec = next(r for r in records if r["job"] == batch)
        names = [ev["name"] for ev in rec["timeline"]]
        assert "serve.preempt" in names
        assert "serve.resume" in names
        # the resume is flow-linked to the preempted attempt's span
        resume = next(ev for ev in rec["timeline"]
                      if ev["name"] == "serve.resume")
        preempted_attempt = next(
            ev for ev in rec["timeline"]
            if ev["name"] == "serve.attempt"
            and ev.get("outcome") == "preempted")
        assert resume["link_from"] == preempted_attempt["span_id"]
        # one trace id across both attempts
        tids = {rec["trace"]["trace_id"]}
        assert len(tids) == 1

    def test_crash_retry_stays_on_one_trace(self, rng, tmp_path):
        from repro.resilience.crash import CrashFaultSpec, CrashInjector

        with _service(tmp_path) as svc:
            svc.fault_factory = (
                lambda job: CrashInjector(CrashFaultSpec(
                    site="ckpt.save.*.post", call_index=1, kind="kill"))
                if job.attempts == 1 else None
            )
            jid = svc.submit(random_symmetric(32, rng), b=4,
                             checkpointed=True,
                             retry=RetryPolicy(max_attempts=3,
                                               backoff_base=0.001))
            res = svc.result(jid, timeout=120.0)
        assert res.outcome == "done" and res.attempts == 2
        records = load_serve_manifest(svc.spool_dir)
        assert check_trace_continuity(records) == []
        rec = records[0]
        names = [ev["name"] for ev in rec["timeline"]]
        assert "serve.backoff" in names
        assert "serve.resume" in names
        attempts = [ev for ev in rec["timeline"]
                    if ev["name"] == "serve.attempt"]
        assert [ev["attempt"] for ev in attempts] == [1, 2]
        assert attempts[0]["outcome"] == "crash"
        assert attempts[1]["outcome"] == "done"
        # the trace context also reached the persisted run header
        run_json = os.path.join(rec["run_dir"], "run.json")
        header = json.load(open(run_json))
        assert header["trace"]["trace_id"] == rec["trace"]["trace_id"]

    def test_queue_wait_columns_in_latency_rows(self, rng, tmp_path):
        with _service(tmp_path) as svc:
            jid = svc.submit(random_symmetric(12, rng))
            assert svc.result(jid, timeout=60.0).ok
            # result() returns once the job is recorded.
            rows = svc.latency_rows()
        assert rows
        row = rows[0]
        assert "queue_wait_p50" in row and "queue_wait_p99" in row
        assert row["queue_wait_p50"] >= 0.0

    def test_service_writes_prometheus_snapshot(self, rng, tmp_path):
        with _service(tmp_path) as svc:
            jid = svc.submit(random_symmetric(12, rng))
            assert svc.result(jid, timeout=60.0).ok
        series = parse_prometheus(
            open(os.path.join(svc.spool_dir, "metrics.prom")).read())
        assert any(k.startswith("repro_serve_slo_burn_rate") for k in series)
        assert any(k.startswith("repro_serve_slo_good_total") for k in series)
        assert any(k.startswith("repro_serve_ttfa_seconds") for k in series)


# ---------------------------------------------------------------------------
# trace persistence in the PR-4 run dir
# ---------------------------------------------------------------------------
class TestCheckpointTracePersistence:
    def test_driver_persists_and_resume_rehydrates(self, rng, tmp_path):
        from repro.ckpt import driver as ckpt_driver
        from repro.ckpt.store import CheckpointConfig, CheckpointManager
        from repro.eig.driver import syevd_2stage
        from repro.resilience.crash import (
            CrashFaultSpec,
            CrashInjector,
            SimulatedCrashError,
        )

        a = random_symmetric(32, rng)
        ctx = TraceContext.new()
        run_dir = str(tmp_path / "run")
        crash = CrashInjector(CrashFaultSpec(
            site="ckpt.save.*.post", call_index=2, kind="kill"))
        with pytest.raises(SimulatedCrashError):
            syevd_2stage(
                a, b=4,
                checkpoint=CheckpointConfig(run_dir=run_dir, crash=crash),
                trace=ctx,
            )
        # the kwarg-passed context landed in the run header
        stored = CheckpointManager(CheckpointConfig(run_dir=run_dir)).trace()
        assert stored["trace_id"] == ctx.trace_id

        with obs_spans.collect() as session:
            res = ckpt_driver.resume(run_dir)
        assert res.eigenvalues is not None
        roots = [s for s in session.spans if s.name == "syevd"]
        assert roots and roots[0].meta["trace_id"] == ctx.trace_id

    def test_explicit_trace_override_wins_on_resume(self, rng, tmp_path):
        from repro.ckpt import driver as ckpt_driver
        from repro.ckpt.store import CheckpointConfig
        from repro.eig.driver import syevd_2stage
        from repro.resilience.crash import (
            CrashFaultSpec,
            CrashInjector,
            SimulatedCrashError,
        )

        a = random_symmetric(24, rng)
        run_dir = str(tmp_path / "run")
        crash = CrashInjector(CrashFaultSpec(
            site="ckpt.save.*.post", call_index=1, kind="kill"))
        with pytest.raises(SimulatedCrashError):
            syevd_2stage(
                a, b=4,
                checkpoint=CheckpointConfig(run_dir=run_dir, crash=crash),
                trace=TraceContext.new(),
            )
        fresh = TraceContext.new()
        with obs_spans.collect() as session:
            ckpt_driver.resume(run_dir, trace=fresh)
        roots = [s for s in session.spans if s.name == "syevd"]
        assert roots and roots[0].meta["trace_id"] == fresh.trace_id


# ---------------------------------------------------------------------------
# SLO accounting
# ---------------------------------------------------------------------------
class _FakeResult:
    def __init__(self, ok=True, outcome="done", deadline_missed=False):
        self.ok = ok
        self.outcome = outcome
        self.deadline_missed = deadline_missed


class _FakeJob:
    def __init__(self, priority="standard", deadline=None, **kw):
        self.spec = type("S", (), {
            "priority": priority, "deadline_seconds": deadline,
        })()
        self.result = _FakeResult(**kw)


class TestSloTracker:
    def test_burn_rate_math(self):
        reg = MetricsRegistry()
        slo = SloTracker(reg, SloPolicy(default_target=0.9))
        for _ in range(9):
            slo.record_terminal(_FakeJob())
        slo.record_terminal(_FakeJob(ok=False, outcome="failed"))
        # 1 bad / 10 total = 0.1 observed; allowed = 0.1 → burn rate 1.0
        assert reg.gauge_value(
            "repro_serve_slo_burn_rate", priority="standard"
        ) == pytest.approx(1.0)
        assert reg.gauge_value(
            "repro_serve_slo_error_budget_remaining", priority="standard"
        ) == pytest.approx(0.0)
        rows = slo.rows()
        assert rows == [{
            "priority": "standard", "good": 9, "bad": 1, "target": 0.9,
            "burn_rate": pytest.approx(1.0),
            "error_budget_remaining": pytest.approx(0.0),
        }]

    def test_deadline_counters_only_for_deadlined_jobs(self):
        reg = MetricsRegistry()
        slo = SloTracker(reg)
        slo.record_terminal(_FakeJob(deadline=1.0))
        slo.record_terminal(_FakeJob(deadline=1.0, deadline_missed=True))
        slo.record_terminal(_FakeJob())  # no deadline: no hit/miss counted
        assert reg.counter_value(
            "repro_serve_slo_deadline_hits_total", priority="standard") == 1
        assert reg.counter_value(
            "repro_serve_slo_deadline_misses_total", priority="standard") == 1
        # a deadline miss is a bad job even when the run itself finished
        assert reg.counter_value(
            "repro_serve_slo_bad_total", priority="standard") == 1

    def test_cancelled_jobs_do_not_burn_budget(self):
        reg = MetricsRegistry()
        slo = SloTracker(reg)
        slo.record_terminal(_FakeJob(ok=False, outcome="cancelled"))
        assert slo.rows() == []

    def test_default_target(self):
        assert SloPolicy().target("anything") == DEFAULT_TARGET
        with pytest.raises(ValueError):
            SloPolicy(targets={"batch": 1.5}).target("batch")

    def test_gauges_round_trip_through_prometheus(self):
        reg = MetricsRegistry()
        slo = SloTracker(reg)
        slo.record_first_attempt("batch", 0.05)
        slo.record_terminal(_FakeJob(priority="batch"))
        series = parse_prometheus(render_prometheus(reg.snapshot()))
        assert series['repro_serve_slo_burn_rate{priority="batch"}'] == 0.0
        assert series['repro_serve_slo_good_total{priority="batch"}'] == 1.0
        assert any(k.startswith("repro_serve_ttfa_seconds") for k in series)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------
class TestServeChromeExport:
    def _soak_records(self, rng, tmp_path):
        with _service(tmp_path, workers=2) as svc:
            ids = [svc.submit(random_symmetric(12, rng), tag=f"j{i}")
                   for i in range(4)]
            for jid in ids:
                assert svc.result(jid, timeout=60.0) is not None
        return load_serve_manifest(svc.spool_dir)

    def test_lanes_and_schema(self, rng, tmp_path):
        records = self._soak_records(rng, tmp_path)
        trace = serve_trace_to_chrome(records)
        evs = trace["traceEvents"]
        assert all({"name", "ph", "pid", "tid"} <= set(e) for e in evs)
        lanes = {e["args"]["name"] for e in evs if e["name"] == "thread_name"}
        assert "service" in lanes
        assert any(l.startswith("serve-worker-") for l in lanes)
        # attempts render on worker lanes, admission on the service lane
        attempts = [e for e in evs if e.get("cat") == "serve"
                    and e["name"].startswith("serve.attempt")]
        assert attempts and all(e["tid"] != 1 for e in attempts)
        admits = [e for e in evs if e["name"] == "serve.admit"]
        assert admits and all(e["tid"] == 1 for e in admits)
        assert trace["otherData"]["jobs"] == len(records)
        assert trace["otherData"]["traces"] == len(records)

    def test_flow_arrows_link_attempts(self):
        root = "r0"
        rec = _record(
            job="job-1", preemptions=1,
            trace={"trace_id": "tX", "span_id": root},
            timeline=[
                {"name": "serve.admit", "t": 0.0, "dur": 0.0,
                 "span_id": "s1", "parent_id": root},
                {"name": "serve.attempt", "t": 0.01, "dur": 0.1,
                 "attempt": 1, "outcome": "preempted", "worker": "w0",
                 "span_id": "s2", "parent_id": root},
                {"name": "serve.preempt", "t": 0.11, "dur": 0.0,
                 "span_id": "s3", "parent_id": root},
                {"name": "serve.resume", "t": 0.2, "dur": 0.0,
                 "span_id": "s4", "parent_id": root, "link_from": "s2"},
                {"name": "serve.attempt", "t": 0.2, "dur": 0.1,
                 "attempt": 2, "outcome": "done", "worker": "w1",
                 "span_id": "s5", "parent_id": root},
                {"name": "serve.result", "t": 0.3, "dur": 0.0,
                 "span_id": "s6", "parent_id": root},
            ])
        evs = serve_trace_to_chrome([rec])["traceEvents"]
        starts = [e for e in evs if e.get("cat") == "serve.flow"
                  and e["ph"] == "s"]
        finishes = [e for e in evs if e.get("cat") == "serve.flow"
                    and e["ph"] == "f"]
        assert len(starts) == 1 and len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"] == "tX"
        assert finishes[0]["bp"] == "e"
        # arrow spans the two different worker lanes
        assert starts[0]["tid"] != finishes[0]["tid"]
        # attempt names carry the attempt index
        names = {e["name"] for e in evs if e.get("cat") == "serve"}
        assert {"serve.attempt[1]", "serve.attempt[2]"} <= names

    def test_accepts_spool_path(self, rng, tmp_path):
        self._soak_records(rng, tmp_path)
        trace = serve_trace_to_chrome(str(tmp_path / "spool"))
        assert trace["otherData"]["jobs"] == 4


class TestSpanFlowArrows:
    def test_to_chrome_trace_links_same_trace_spans(self, tmp_path):
        from repro.obs.manifest import write_manifest

        ctx = TraceContext.new()
        with obs_spans.collect() as session:
            lifecycle_span("serve.attempt", 0.1, trace=ctx.child())
            lifecycle_span("serve.attempt", 0.1, trace=ctx.child())
        path = write_manifest(
            session, str(tmp_path / "m.jsonl"),
            trace_context=ctx.to_dict(),
        )
        trace = to_chrome_trace(path)
        flows = [e for e in trace["traceEvents"] if e.get("cat") == "trace"]
        assert len(flows) == 2  # one s + one f for the pair
        assert {e["ph"] for e in flows} == {"s", "f"}
        assert all(e["id"] == ctx.trace_id for e in flows)
        assert trace["otherData"]["trace"]["trace_id"] == ctx.trace_id


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestTraceCli:
    def _spool(self, rng, tmp_path):
        with _service(tmp_path) as svc:
            jid = svc.submit(random_symmetric(12, rng))
            assert svc.result(jid, timeout=60.0).ok
        return svc.spool_dir

    def test_summary_and_check_pass(self, rng, tmp_path, capsys):
        from repro.obs.__main__ import main

        spool = self._spool(rng, tmp_path)
        assert main(["trace", spool, "--check"]) == 0
        out = capsys.readouterr().out
        assert "trace continuity: ok" in out

    def test_chrome_export_to_file(self, rng, tmp_path, capsys):
        from repro.obs.__main__ import main

        spool = self._spool(rng, tmp_path)
        out_path = str(tmp_path / "trace.json")
        assert main(["trace", spool, "--chrome", "-o", out_path]) == 0
        trace = json.load(open(out_path))
        assert trace["traceEvents"]
        assert trace["otherData"]["jobs"] == 1

    def test_check_fails_on_broken_trace(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        spool = tmp_path / "spool"
        spool.mkdir()
        with open(spool / "manifest.jsonl", "w") as fh:
            fh.write(json.dumps(_record(trace=None)) + "\n")
        assert main(["trace", str(spool), "--check"]) == 2
        assert "missing trace" in capsys.readouterr().err

    def test_missing_spool_errors(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        assert main(["trace", str(tmp_path / "nope")]) == 1


# ---------------------------------------------------------------------------
# satellite: per-tag gemm launch counts in the report
# ---------------------------------------------------------------------------
class TestLaunchesColumn:
    def test_gemm_summary_counts_launches_per_tag(self):
        with obs_spans.collect() as session:
            with obs_spans.span("syevd"):
                obs_spans.gemm_event(8, 8, 8, seconds=1e-3, tag="panel",
                                     engine="test", op="gemm")
                obs_spans.gemm_event(8, 8, 8, seconds=1e-3, tag="panel",
                                     engine="test", op="gemm_batched",
                                     batch=4)
        summary = session.gemm_summary()
        slot = summary["by_tag"]["panel"]
        assert slot["calls"] == 5      # batched event counts its stack
        assert slot["launches"] == 2   # but is one engine launch

    def test_report_renders_launches_with_dash_fallback(self, tmp_path):
        from repro.obs.manifest import load_manifest, write_manifest
        from repro.obs.report import render_report

        with obs_spans.collect() as session:
            with obs_spans.span("syevd"):
                obs_spans.gemm_event(8, 8, 8, seconds=1e-3, tag="panel",
                                     engine="test", op="gemm")
        path = write_manifest(session, str(tmp_path / "m.jsonl"))
        out = render_report(path)
        assert "launches" in out

        # pre-launches manifests (no "launches" slot) render a dash
        man = load_manifest(path)
        for slot in man.gemm_summary["by_tag"].values():
            slot.pop("launches", None)
        out_old = render_report(man)
        assert "launches" in out_old  # header still present
        row = [l for l in out_old.splitlines() if "panel" in l][0]
        assert " - " in row
