"""Tests for the observability analytics layer: attribution, exporters,
and the satellite telemetry additions."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import obs, syevd_2stage
from repro.device.perf_model import PerfModel
from repro.device.specs import A100Spec
from repro.gemm import SgemmEngine
from repro.obs.__main__ import main as obs_main
from repro.obs.analytics import (
    attribute_manifest,
    render_attribution,
    to_chrome_trace,
    to_collapsed_stacks,
)
from repro.obs.analytics.attribution import UNATTRIBUTED
from repro.obs.manifest import MIN_SCHEMA_VERSION, SCHEMA_VERSION


class FakeClock:
    """Deterministic clock: advances by a fixed step on every read."""

    def __init__(self, step: float = 0.001):
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


def _syevd_manifest(tmp_path, *, n=64, b=4, nb=16, name="syevd.jsonl"):
    """One instrumented small syevd_2stage run persisted with full meta."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((n, n))
    a = (a + a.T) * 0.5
    with obs.collect() as session:
        syevd_2stage(a, b=b, nb=nb, want_vectors=False)
    return obs.write_manifest(
        session,
        str(tmp_path / name),
        label="syevd-small",
        precision="fp32",
        matrix={"n": n},
        config={"b": b, "nb": nb, "method": "wy", "want_vectors": False},
    )


class TestDeterministicClock:
    def test_collector_durations_are_deterministic(self):
        clk = FakeClock(step=0.5)
        with obs.collect(clock=clk) as session:
            with obs.span("a"):
                pass
        # Clock reads: epoch, span enter, span exit -> duration is one step.
        assert session.spans[0].duration == pytest.approx(0.5)
        assert session.spans[0].start == pytest.approx(0.5)

    def test_now_reads_the_active_clock(self):
        clk = FakeClock(step=1.0)
        with obs.collect(clock=clk):
            first = obs.now()
            second = obs.now()
        assert second - first == pytest.approx(1.0)

    def test_engine_events_share_the_fake_timeline(self, rng):
        eng = SgemmEngine()
        a = rng.standard_normal((4, 4)).astype(np.float32)
        clk = FakeClock(step=0.25)
        with obs.collect(clock=clk) as session:
            with obs.span("p"):
                eng.gemm(a, a, tag="t")
        ev = session.gemm_events[0]
        # The engine reads the clock twice (entry/exit): one deterministic step.
        assert ev.seconds == pytest.approx(0.25)
        assert ev.start >= 0.0  # placed on the collector epoch timeline
        sp = session.by_path("p")[0]
        assert sp.start <= ev.start <= sp.start + sp.duration


class TestAttribution:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        path = _syevd_manifest(tmp_path_factory.mktemp("attr"))
        return attribute_manifest(path)

    def test_phases_are_the_pipeline_stages(self, report):
        assert [row["phase"] for row in report.phases] == [
            "syevd/sbr", "syevd/bulge", "syevd/tridiag_solve",
        ]

    def test_every_gemm_phase_has_model_prediction(self, report):
        sbr = next(r for r in report.phases if r["phase"] == "syevd/sbr")
        assert sbr["calls"] > 0
        assert sbr["measured"] > 0
        assert sbr["modeled"] > 0
        assert sbr["efficiency"] is not None and sbr["efficiency"] > 0
        assert sbr["span_seconds"] >= sbr["measured"] - 1e-9
        assert sbr["other_seconds"] >= 0.0

    def test_totals_are_the_sum_of_phases(self, report):
        assert report.totals["calls"] == sum(r["calls"] for r in report.phases)
        assert report.totals["measured"] == pytest.approx(
            sum(r["measured"] for r in report.phases)
        )
        # Every modeled second lands in exactly one roofline class.
        assert sum(report.totals["bound"].values()) == pytest.approx(
            report.totals["modeled"]
        )

    def test_tags_sorted_by_measured_time(self, report):
        measured = [row["measured"] for row in report.tags]
        assert measured == sorted(measured, reverse=True)

    def test_gaps_ranked_by_excess(self, report):
        excess = [g["excess"] for g in report.gaps]
        assert excess == sorted(excess, reverse=True)
        assert {g["phase"] for g in report.gaps} <= {
            r["phase"] for r in report.phases
        }

    def test_analytic_flop_join(self, report):
        assert report.analytic is not None
        assert report.analytic["sbr_flops"] > 0
        cov = report.analytic["engine_flop_coverage"]
        assert cov is not None and 0.0 < cov < 2.0

    def test_render_contains_sections(self, report):
        text = render_attribution(report)
        assert "per phase:" in text
        assert "per tag:" in text
        assert "where the time went" in text
        assert "efficiency" in text
        assert "analytic check" in text

    def _manifest_with_events(self, tmp_path, events):
        with obs.collect() as session:
            with obs.span("run"):
                for name, (m, n, k, engine) in events.items():
                    with obs.span(name):
                        obs.gemm_event(m, n, k, tag=name, engine=engine,
                                       op="gemm", seconds=1e-4, start=obs.now())
        return obs.write_manifest(session, str(tmp_path / "synth.jsonl"))

    def test_roofline_launch_vs_compute(self, tmp_path):
        path = self._manifest_with_events(tmp_path, {
            "tiny": (4, 4, 4, "sgemm"),          # everything below launch cost
            "big": (2048, 2048, 2048, "tc"),     # throughput-curve limited
        })
        report = attribute_manifest(path)
        bound = {row["tag"]: row["bound"] for row in report.tags}
        assert max(bound["tiny"], key=bound["tiny"].get) == "launch"
        assert max(bound["big"], key=bound["big"].get) == "compute"

    def test_roofline_bandwidth_bound(self, tmp_path):
        # A spec with starved HBM makes the memory roofline bind.
        slow_hbm = PerfModel(dataclasses.replace(A100Spec, hbm_bandwidth=1e9))
        path = self._manifest_with_events(tmp_path, {
            "big": (2048, 2048, 2048, "tc"),
        })
        report = attribute_manifest(path, model=slow_hbm)
        bound = report.tags[0]["bound"]
        assert max(bound, key=bound.get) == "bandwidth"

    def test_modeled_matches_perf_model_exactly(self, tmp_path):
        path = self._manifest_with_events(tmp_path, {"one": (64, 32, 16, "tc")})
        report = attribute_manifest(path)
        assert report.totals["modeled"] == pytest.approx(
            PerfModel().gemm_time(64, 32, 16, "tc")
        )

    def test_event_outside_any_span_is_unattributed(self, tmp_path):
        with obs.collect() as session:
            with obs.span("run"):
                with obs.span("phase"):
                    obs.gemm_event(8, 8, 8, tag="in", engine="sgemm",
                                   op="gemm", seconds=1e-5)
            # No active span: span_path is "".
            obs.gemm_event(8, 8, 8, tag="out", engine="sgemm",
                           op="gemm", seconds=1e-5)
        path = obs.write_manifest(session, str(tmp_path / "m.jsonl"))
        report = attribute_manifest(path)
        by_phase = {row["phase"]: row for row in report.phases}
        assert UNATTRIBUTED in by_phase
        assert by_phase[UNATTRIBUTED]["calls"] == 1
        assert by_phase["run/phase"]["calls"] == 1

    def test_syr2k_events_price_on_syr2k_model(self, tmp_path):
        with obs.collect() as session:
            with obs.span("run"):
                obs.gemm_event(32, 32, 8, tag="s", engine="sgemm",
                               op="syr2k", seconds=1e-5)
        path = obs.write_manifest(session, str(tmp_path / "m.jsonl"))
        report = attribute_manifest(path)
        assert report.totals["modeled"] == pytest.approx(
            PerfModel().syr2k_time(32, 8, "sgemm")
        )


class TestChromeTrace:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = _syevd_manifest(tmp_path_factory.mktemp("chrome"))
        return to_chrome_trace(path)

    def test_schema_shape(self, trace):
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert isinstance(trace["traceEvents"], list)
        assert trace["traceEvents"]
        for ev in trace["traceEvents"]:
            assert ev["ph"] in ("X", "M")
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            assert isinstance(ev["name"], str) and ev["name"]
            if ev["ph"] == "X":
                assert ev["ts"] >= 0.0
                assert ev["dur"] >= 0.0
            else:
                assert "name" in ev["args"]

    def test_json_round_trip(self, trace):
        again = json.loads(json.dumps(trace))
        assert again == trace

    def test_span_and_gemm_lanes(self, trace):
        tids = {ev["tid"] for ev in trace["traceEvents"] if ev["ph"] == "X"}
        assert tids == {1, 2}  # phase spans + gemm stream
        thread_names = {
            ev["args"]["name"]
            for ev in trace["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert thread_names == {"phase spans", "gemm stream"}

    def test_span_args_carry_path(self, trace):
        spans = [ev for ev in trace["traceEvents"]
                 if ev["ph"] == "X" and ev.get("cat") == "span"]
        assert any(ev["args"]["path"] == "syevd/sbr" for ev in spans)

    def test_gemm_events_nest_inside_run(self, trace):
        spans = [ev for ev in trace["traceEvents"]
                 if ev["ph"] == "X" and ev.get("cat") == "span"]
        root = next(ev for ev in spans if ev["args"]["depth"] == 0)
        gemms = [ev for ev in trace["traceEvents"] if ev.get("cat") == "gemm"]
        assert gemms
        for ev in gemms:
            assert root["ts"] - 1.0 <= ev["ts"] <= root["ts"] + root["dur"] + 1.0

    def test_v1_manifest_without_starts_exports_spans_only(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        path.write_text(
            json.dumps({"kind": "meta", "schema": 1, "label": "old"}) + "\n"
            + json.dumps({"kind": "span", "name": "run", "path": "run",
                          "start": 0.0, "duration": 1.0, "depth": 0}) + "\n"
            + json.dumps({"kind": "gemm", "m": 4, "n": 4, "k": 4, "tag": "t",
                          "engine": "sgemm", "op": "gemm", "seconds": 0.1,
                          "span_path": "run"}) + "\n"
        )
        trace = to_chrome_trace(str(path))
        assert not [ev for ev in trace["traceEvents"] if ev.get("cat") == "gemm"]
        assert [ev for ev in trace["traceEvents"] if ev.get("cat") == "span"]


class TestCollapsedStacks:
    def test_format_and_self_time(self, tmp_path):
        clk = FakeClock(step=1.0)
        with obs.collect(clock=clk) as session:
            with obs.span("root"):
                with obs.span("child"):
                    pass
        path = obs.write_manifest(session, str(tmp_path / "m.jsonl"))
        text = to_collapsed_stacks(path)
        lines = dict(
            (line.rsplit(" ", 1)[0], int(line.rsplit(" ", 1)[1]))
            for line in text.strip().splitlines()
        )
        assert set(lines) == {"root;child", "root"}
        # child: one step; root: enter..exit spans 3 steps, minus child's 1.
        assert lines["root;child"] == 1_000_000
        assert lines["root"] == 2_000_000
        assert text.endswith("\n")

    def test_zero_duration_spans_clamp_to_zero(self, tmp_path):
        # A child longer than its parent's bookkeeping can make self time
        # negative; the exporter clamps at zero rather than emitting
        # negative widths.
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps({"kind": "meta", "schema": SCHEMA_VERSION}) + "\n"
            + json.dumps({"kind": "span", "name": "child", "path": "p/child",
                          "start": 0.0, "duration": 2.0, "depth": 1}) + "\n"
            + json.dumps({"kind": "span", "name": "p", "path": "p",
                          "start": 0.0, "duration": 1.0, "depth": 0}) + "\n"
        )
        text = to_collapsed_stacks(str(path))
        values = {l.rsplit(" ", 1)[0]: int(l.rsplit(" ", 1)[1])
                  for l in text.strip().splitlines()}
        assert values["p"] == 0
        assert values["p;child"] == 2_000_000

    def test_empty_manifest_is_empty_string(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"kind": "meta", "schema": SCHEMA_VERSION}) + "\n")
        assert to_collapsed_stacks(str(path)) == ""


class TestJoinEdgeCases:
    """Satellite: GEMM-event/span join edge cases."""

    def test_events_outside_any_span_in_gemm_by_phase(self, tmp_path):
        with obs.collect() as session:
            with obs.span("run"):
                with obs.span("inner"):
                    obs.gemm_event(4, 4, 4, tag="t", engine="sgemm",
                                   op="gemm", seconds=0.1)
            obs.gemm_event(4, 4, 4, tag="t", engine="sgemm",
                           op="gemm", seconds=0.2)
        path = obs.write_manifest(session, str(tmp_path / "m.jsonl"))
        man = obs.load_manifest(path)
        by_phase = man.gemm_by_phase()
        # The orphan event maps to no phase but must not crash or be
        # silently folded into an unrelated phase.
        assert by_phase["run/inner"]["calls"] == 1
        assert sum(slot["calls"] for slot in by_phase.values()) == 1

    def test_nested_collectors_do_not_cross_attribute(self, rng):
        eng = SgemmEngine()
        a = rng.standard_normal((4, 4)).astype(np.float32)
        with obs.collect() as outer:
            with obs.span("outer_phase"):
                with obs.collect() as inner:
                    with obs.span("inner_phase"):
                        eng.gemm(a, a, tag="t")
                eng.gemm(a, a, tag="t2")
        assert [e.span_path for e in inner.gemm_events] == ["inner_phase"]
        # The outer collector sees only the event recorded while active.
        assert [e.span_path for e in outer.gemm_events] == ["outer_phase"]

    def test_zero_duration_spans_in_time_by_path(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps({"kind": "meta", "schema": SCHEMA_VERSION, "wall": 1.0}) + "\n"
            + json.dumps({"kind": "span", "name": "z", "path": "z",
                          "start": 0.0, "duration": 0.0, "depth": 0}) + "\n"
            + json.dumps({"kind": "span", "name": "z", "path": "z",
                          "start": 0.5, "duration": 0.0, "depth": 0}) + "\n"
        )
        man = obs.load_manifest(str(path))
        assert man.time_by_path() == {"z": 0.0}
        assert man.phase_paths() == ["z"]
        assert man.coverage() == 0.0  # falls back to meta wall, no div-by-zero
        # And the exporters accept it.
        assert to_collapsed_stacks(man) == "z 0\n"
        assert to_chrome_trace(man)["traceEvents"]


class TestManifestSchemaGuards:
    """Satellite: graceful degradation on older/foreign manifests."""

    def test_missing_schema_field_is_clear_error(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"kind": "meta", "label": "x"}) + "\n")
        with pytest.raises(ValueError, match="schema-version"):
            obs.load_manifest(str(path))

    def test_too_old_schema_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps({"kind": "meta", "schema": MIN_SCHEMA_VERSION - 1}) + "\n"
        )
        with pytest.raises(ValueError, match="older"):
            obs.load_manifest(str(path))

    def test_span_missing_field_is_clear_error(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps({"kind": "meta", "schema": SCHEMA_VERSION}) + "\n"
            + json.dumps({"kind": "span", "name": "x", "path": "x"}) + "\n"
        )
        with pytest.raises(ValueError, match="missing field"):
            obs.load_manifest(str(path))

    def test_report_cli_degrades_gracefully(self, tmp_path, capsys):
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps({"kind": "meta", "label": "pre"}) + "\n")
        assert obs_main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "schema" in err

    def test_v1_manifests_still_load(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps({"kind": "meta", "schema": 1, "label": "v1",
                        "wall": 0.5}) + "\n"
        )
        assert obs.load_manifest(str(path)).label == "v1"


class TestAnalyticsCli:
    def test_attribution_cli(self, tmp_path, capsys):
        path = _syevd_manifest(tmp_path)
        assert obs_main(["attribution", path]) == 0
        out = capsys.readouterr().out
        assert "syevd/sbr" in out and "efficiency" in out

    def test_export_chrome_cli(self, tmp_path, capsys):
        path = _syevd_manifest(tmp_path)
        out_file = str(tmp_path / "trace.json")
        assert obs_main(["export", "--chrome", path, "-o", out_file]) == 0
        with open(out_file) as fh:
            trace = json.load(fh)
        assert "traceEvents" in trace
        assert all(ev["ph"] in ("X", "M") for ev in trace["traceEvents"])

    def test_export_flame_cli(self, tmp_path, capsys):
        path = _syevd_manifest(tmp_path)
        assert obs_main(["export", "--flame", path]) == 0
        out = capsys.readouterr().out
        assert "syevd;sbr" in out

    def test_export_requires_format(self, tmp_path):
        path = _syevd_manifest(tmp_path)
        with pytest.raises(SystemExit):
            obs_main(["export", path])
