"""Tests for the telemetry subsystem: spans, manifests, reports, CLI."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro import obs, syevd_2stage
from repro.gemm import GemmTrace, SgemmEngine
from repro.obs.__main__ import main as obs_main
from repro.obs.manifest import SCHEMA_VERSION
from repro.obs import spans as obs_spans
from repro.obs.spans import NULL_SPAN


class TestSpans:
    def test_disabled_is_noop_singleton(self):
        assert not obs.is_enabled()
        assert obs.span("x") is NULL_SPAN
        assert obs.span("y", meta=1) is NULL_SPAN
        with obs.span("z") as sp:
            sp.count("n", 3)  # swallowed
        assert obs.active_collector() is None

    def test_disabled_counter_and_gemm_event_noop(self):
        obs.counter("anything", 5)
        obs.gemm_event(2, 2, 2, tag="t", engine="e", op="gemm", seconds=0.1)
        assert obs.active_collector() is None

    def test_collect_activates_and_restores(self):
        assert not obs.is_enabled()
        with obs.collect() as session:
            assert obs.is_enabled()
            assert obs.active_collector() is session
        assert not obs.is_enabled()

    def test_nesting_paths_and_depths(self):
        with obs.collect() as session:
            with obs.span("outer"):
                with obs.span("inner"):
                    with obs.span("leaf"):
                        pass
                with obs.span("inner2"):
                    pass
        paths = [s.path for s in session.spans]
        # Spans finish innermost-first.
        assert paths == ["outer/inner/leaf", "outer/inner", "outer/inner2", "outer"]
        assert [s.depth for s in session.spans] == [2, 1, 1, 0]
        assert session.roots()[0].name == "outer"

    def test_durations_nest(self):
        with obs.collect() as session:
            with obs.span("outer"):
                with obs.span("inner"):
                    time.sleep(0.01)
        inner = session.by_path("outer/inner")[0]
        outer = session.by_path("outer")[0]
        assert inner.duration >= 0.009
        assert outer.duration >= inner.duration

    def test_counters_and_meta(self):
        with obs.collect() as session:
            with obs.span("work", kind="test") as sp:
                sp.count("items", 2)
                sp.count("items", 3)
                obs.counter("seen")
        span = session.spans[0]
        assert span.counters == {"items": 5, "seen": 1}
        assert span.meta == {"kind": "test"}

    def test_counter_outside_span_is_dropped(self):
        with obs.collect() as session:
            obs.counter("orphan")
        assert session.spans == []

    def test_nested_collect_shadows_outer(self):
        with obs.collect() as outer_session:
            with obs.span("outer_only"):
                pass
            with obs.collect() as inner_session:
                with obs.span("inner_only"):
                    pass
            assert obs.active_collector() is outer_session
        assert [s.name for s in outer_session.spans] == ["outer_only"]
        assert [s.name for s in inner_session.spans] == ["inner_only"]

    def test_exception_still_finishes_span(self):
        with obs.collect() as session:
            with pytest.raises(RuntimeError):
                with obs.span("failing"):
                    raise RuntimeError("boom")
        assert [s.name for s in session.spans] == ["failing"]

    def test_span_roundtrips_through_dict(self):
        with obs.collect() as session:
            with obs.span("a", n=4) as sp:
                sp.count("c", 1)
        original = session.spans[0]
        assert obs.Span.from_dict(original.to_dict()) == original


class TestOneStream:
    """The collector and the live registry are two views of one span
    stack, whichever of them was installed first."""

    def test_collector_inside_registry_span_nests_under_it(self):
        reg = obs.MetricsRegistry()
        with obs.use_registry(reg), obs.span("syevd"):
            with obs.collect() as session:
                with obs.span("sbr"):
                    assert reg.phase == "sbr"
            assert reg.phase == "syevd"
        assert [(s.path, s.depth) for s in session.spans] == [("syevd/sbr", 1)]

    def test_registry_inside_collector_span_sees_the_path(self):
        reg = obs.MetricsRegistry()
        with obs.collect() as session, obs.span("syevd"):
            with obs.use_registry(reg):
                with obs.span("sbr"):
                    assert reg.phase_path == "syevd/sbr"
                assert reg.phase == "syevd"
        assert [(s.path, s.depth) for s in session.spans] == [
            ("syevd/sbr", 1), ("syevd", 0)
        ]
        assert reg.histogram("repro_phase_seconds", phase="sbr") is not None

    def test_one_activation_slot(self):
        reg = obs.MetricsRegistry()
        assert obs_spans._active is None
        with obs.use_registry(reg):
            with obs.collect() as session:
                assert obs_spans._active.collector is session
                assert obs_spans._active.registry is reg
            assert obs.active_collector() is None
            assert obs_spans._active.registry is reg
        assert obs_spans._active is None


class TestGemmEvents:
    def test_engine_reports_events_with_span_attribution(self, rng):
        eng = SgemmEngine(record=True)
        a = rng.standard_normal((8, 4)).astype(np.float32)
        b = rng.standard_normal((4, 6)).astype(np.float32)
        with obs.collect() as session:
            with obs.span("phase"):
                eng.gemm(a, b, tag="t1")
        assert len(session.gemm_events) == 1
        ev = session.gemm_events[0]
        assert (ev.m, ev.n, ev.k) == (8, 6, 4)
        assert ev.tag == "t1" and ev.engine == "sgemm" and ev.op == "gemm"
        assert ev.span_path == "phase"
        assert ev.seconds > 0
        assert ev.flops == eng.trace.total_flops

    def test_syr2k_event_matches_trace_record(self, rng):
        eng = SgemmEngine(record=True)
        y = rng.standard_normal((6, 3)).astype(np.float32)
        z = rng.standard_normal((6, 3)).astype(np.float32)
        with obs.collect() as session:
            eng.syr2k(y, z, tag="s")
        ev = session.gemm_events[0]
        assert ev.op == "syr2k"
        assert ev.span_path == ""  # no enclosing span
        assert ev.flops == eng.trace[0].flops

    def test_no_events_when_disabled(self, rng):
        eng = SgemmEngine()
        eng.gemm(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        # Nothing to assert beyond "no crash": there is no collector.
        assert obs.active_collector() is None

    def test_gemm_summary_aggregates(self, rng):
        eng = SgemmEngine()
        a = rng.standard_normal((4, 4)).astype(np.float32)
        with obs.collect() as session:
            eng.gemm(a, a, tag="x")
            eng.gemm(a, a, tag="x")
            eng.gemm(a, a, tag="y")
        summary = session.gemm_summary()
        assert summary["calls"] == 3
        assert summary["flops"] == 3 * 2 * 4 * 4 * 4
        assert summary["by_tag"]["x"]["calls"] == 2
        assert summary["by_engine"] == {"sgemm": 3}


class TestManifest:
    def _session(self):
        with obs.collect() as session:
            with obs.span("root", n=4):
                with obs.span("child") as sp:
                    sp.count("c", 2)
        return session

    def test_write_and_load_roundtrip(self, tmp_path):
        session = self._session()
        tr = GemmTrace()
        tr.record(2, 3, 4, tag="t", engine="sgemm")
        path = obs.write_manifest(
            session,
            str(tmp_path / "m.jsonl"),
            label="unit",
            precision="fp32",
            matrix={"n": 4},
            config={"b": 2},
            trace=tr,
            accuracy={"probe": 1.5e-7},
        )
        man = obs.load_manifest(path)
        assert man.label == "unit"
        assert man.meta["precision"] == "fp32"
        assert man.meta["matrix"] == {"n": 4}
        assert man.meta["config"] == {"b": 2}
        assert [s.path for s in man.spans] == ["root/child", "root"]
        assert man.spans[0].counters == {"c": 2}
        assert man.accuracy == {"probe": 1.5e-7}
        assert GemmTrace.from_dict(man.trace).records == tr.records

    def test_default_path_under_run_dir(self, tmp_path):
        session = self._session()
        path = obs.write_manifest(session, run_dir=str(tmp_path / "runs"), label="x")
        assert path.startswith(str(tmp_path / "runs"))
        assert path.endswith(".jsonl")
        assert obs.load_manifest(path).label == "x"

    def test_phase_paths_single_root(self, tmp_path):
        session = self._session()
        man = obs.load_manifest(obs.write_manifest(session, str(tmp_path / "m.jsonl")))
        assert man.phase_paths() == ["root/child"]
        assert man.total_wall == pytest.approx(man.spans[-1].duration)

    def test_phase_paths_multiple_roots(self, tmp_path):
        with obs.collect() as session:
            with obs.span("exp.a"):
                pass
            with obs.span("exp.b"):
                pass
        path = obs.write_manifest(session, str(tmp_path / "m.jsonl"))
        man = obs.load_manifest(path)
        assert man.phase_paths() == ["exp.a", "exp.b"]
        assert man.coverage() == pytest.approx(1.0)

    def test_events_none_omits_gemm_lines(self, tmp_path, rng):
        eng = SgemmEngine()
        a = rng.standard_normal((4, 4)).astype(np.float32)
        with obs.collect() as session:
            with obs.span("p"):
                eng.gemm(a, a, tag="t")
        path = obs.write_manifest(session, str(tmp_path / "m.jsonl"), events="none")
        man = obs.load_manifest(path)
        assert man.gemm_events == []
        assert man.gemm_summary["calls"] == 1

    def test_invalid_events_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            obs.write_manifest(self._session(), str(tmp_path / "m.jsonl"), events="bogus")

    def test_newer_schema_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"kind": "meta", "schema": SCHEMA_VERSION + 1}) + "\n")
        with pytest.raises(ValueError, match="newer"):
            obs.load_manifest(str(path))

    def test_unknown_kind_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps({"kind": "meta", "schema": 1, "label": "ok", "wall": 0.5}) + "\n"
            + json.dumps({"kind": "mystery", "payload": 1}) + "\n"
        )
        man = obs.load_manifest(str(path))
        assert man.label == "ok"
        assert man.total_wall == 0.5


class TestReport:
    def _manifest(self, tmp_path, name, slow=0.0):
        with obs.collect() as session:
            with obs.span("run"):
                with obs.span("fast"):
                    time.sleep(0.002)
                with obs.span("slow"):
                    time.sleep(0.002 + slow)
        return obs.write_manifest(session, str(tmp_path / name), label=name)

    def test_render_report_contains_phases(self, tmp_path):
        path = self._manifest(tmp_path, "a.jsonl")
        text = obs.render_report(path)
        assert "run/fast" in text and "run/slow" in text
        assert "phase coverage" in text
        assert "(untracked)" in text

    def test_compare_flags_regression(self, tmp_path):
        base = self._manifest(tmp_path, "base.jsonl")
        cand = self._manifest(tmp_path, "cand.jsonl", slow=0.02)
        joined = {e["phase"]: e for e in obs.compare_phases(base, cand)}
        assert joined["run/slow"]["verdict"] == "regression"
        text = obs.render_compare(base, cand)
        assert "REGRESSION" in text
        assert "run/slow" in text

    def test_compare_ok_when_similar(self, tmp_path):
        base = self._manifest(tmp_path, "base.jsonl")
        cand = self._manifest(tmp_path, "cand.jsonl")
        # Generous threshold: two identical-structure runs should not flag.
        joined = obs.compare_phases(base, cand, threshold=5.0)
        assert all(e["verdict"] == "ok" for e in joined)

    def test_compare_handles_missing_phase(self, tmp_path):
        base = self._manifest(tmp_path, "base.jsonl")
        with obs.collect() as session:
            with obs.span("run"):
                with obs.span("fast"):
                    pass
        cand = obs.write_manifest(session, str(tmp_path / "cand.jsonl"))
        joined = {e["phase"]: e for e in obs.compare_phases(base, cand)}
        assert joined["run/slow"]["b"] is None
        assert joined["run/slow"]["verdict"] == "ok"


class TestCli:
    def test_report_cli(self, tmp_path, capsys):
        with obs.collect() as session:
            with obs.span("run"):
                pass
        path = obs.write_manifest(session, str(tmp_path / "m.jsonl"), label="cli")
        assert obs_main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "cli" in out and "phase" in out

    def test_report_cli_compare_and_fail_flag(self, tmp_path, capsys):
        def make(extra):
            with obs.collect() as session:
                with obs.span("run"):
                    with obs.span("phase"):
                        time.sleep(0.002 + extra)
            return obs.write_manifest(session, str(tmp_path / f"m{extra}.jsonl"))

        base, cand = make(0.0), make(0.05)
        assert obs_main(["report", "--compare", base, cand]) == 0
        assert "delta" in capsys.readouterr().out
        assert obs_main(["report", "--compare", base, cand, "--fail-on-regression"]) == 2

    def test_report_cli_requires_manifest(self, capsys):
        assert obs_main(["report"]) == 1
        assert "required" in capsys.readouterr().err

    def test_list_cli(self, tmp_path, capsys):
        with obs.collect() as session:
            with obs.span("run"):
                pass
        obs.write_manifest(session, run_dir=str(tmp_path), label="listed")
        assert obs_main(["list", "--dir", str(tmp_path)]) == 0
        assert "label=listed" in capsys.readouterr().out

    def test_list_cli_missing_dir(self, tmp_path, capsys):
        assert obs_main(["list", "--dir", str(tmp_path / "nope")]) == 0
        assert "does not exist" in capsys.readouterr().out

    def test_run_cli_writes_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "run.jsonl")
        rc = obs_main([
            "run", "--n", "64", "--b", "4", "--nb", "16",
            "--no-vectors", "--no-probes", "--out", out,
        ])
        assert rc == 0
        man = obs.load_manifest(out)
        assert man.phase_paths()  # instrumented phases present
        assert "manifest written" in capsys.readouterr().out


class TestEndToEnd:
    """The acceptance scenario: instrumented 256x256 syevd_2stage."""

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((256, 256))
        a = (a + a.T) * 0.5
        with obs.collect() as session:
            res = syevd_2stage(a, b=16, nb=64, want_vectors=False,
                               record_trace=True)
        path = obs.write_manifest(
            session,
            str(tmp_path_factory.mktemp("runs") / "syevd256.jsonl"),
            label="syevd256",
            precision="fp32",
            matrix={"n": 256},
            trace=res.engine.trace,
        )
        return session, res, path

    def test_phase_coverage_at_least_95_percent(self, recorded):
        _, _, path = recorded
        man = obs.load_manifest(path)
        assert man.total_wall > 0
        assert man.coverage() >= 0.95

    def test_phases_are_the_pipeline_stages(self, recorded):
        _, _, path = recorded
        man = obs.load_manifest(path)
        assert man.phase_paths() == ["syevd/sbr", "syevd/bulge", "syevd/tridiag_solve"]

    def test_gemm_flops_match_trace_aggregates(self, recorded):
        session, res, path = recorded
        trace = res.engine.trace
        # Events routed through the stage-1 engine must reproduce the
        # trace's flop total exactly (other engines, e.g. the plain
        # engine inside small QR helpers, report separately).
        by_engine = [e for e in session.gemm_events if e.engine == res.engine.name]
        assert sum(e.flops for e in by_engine) == trace.total_flops
        assert len(by_engine) == len(trace)
        # And the manifest's embedded trace round-trips to the same totals.
        man = obs.load_manifest(path)
        from repro.gemm import GemmTrace

        embedded = GemmTrace.from_dict(man.trace)
        assert embedded.total_flops == trace.total_flops
        assert embedded.shape_multiset() == trace.shape_multiset()

    def test_gemm_events_attributed_to_sbr_phase(self, recorded):
        session, _, _ = recorded
        sgemm_events = [e for e in session.gemm_events if e.engine == "sgemm"]
        assert sgemm_events
        assert all(e.span_path.startswith("syevd/sbr") for e in sgemm_events)

    def test_report_renders(self, recorded):
        _, _, path = recorded
        text = obs.render_report(path)
        assert "syevd/sbr" in text and "syevd/bulge" in text
        assert "gemm stream" in text
