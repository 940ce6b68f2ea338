"""Self-tests of the benchmark harness: ``python -m pytest bench -q``.

A tiny mixed workload (n=64: an fp32 EVD with vectors, an fp64
values-only EVD, and an EC-engine SBR) goes through the same measurement,
correctness-gate and tracing code as the real workloads.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

repro = run.load_repro()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def tiny():
    rng = np.random.default_rng(0)
    cases = [
        run.evd_case(repro, rng, 64, "geo", "fp32", True, 8, 32),
        run.evd_case(repro, rng, 64, "arith", "fp64", False, 8, 32),
        run.sbr_case(repro, rng, 64, 8, 32),
    ]
    return run.Workload("tiny", 0, cases, mixed=True)


def _check_emitted(metrics: dict, section: str) -> None:
    declared = {m["name"]: m["unit"] for m in run.spec()[section]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    for mv in metrics.values():
        assert np.isfinite(mv["value"])


def test_spec_is_well_formed():
    spec = run.spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert 0 < max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert set(spec["workloads"][0]) == {"name", "why"}


def test_every_metric_is_emitted_with_its_unit(tiny, tmp_path):
    plain = run.run_one(repro, tiny, 0.3, trace=False, setup_reps=1)
    assert plain["correct"] and plain["failed"] == 0
    _check_emitted(plain["metrics"], "end_to_end")
    assert all(mv["value"] > 0 for mv in plain["metrics"].values())
    traced = run.run_one(repro, tiny, 0.3, trace=True,
                         trace_path=tmp_path / "trace.jsonl")
    assert traced["correct"]
    _check_emitted(traced["metrics"], "per_layer")
    spans = [json.loads(line) for line in (tmp_path / "trace.jsonl").open()]
    assert {s["name"] for s in spans} == {"call", "sbr", "bulge", "tridiag", "gemm"}


def test_gate_trips_on_perturbed_results(tiny):
    evd, _, sbr = tiny.cases
    gate = run.Gate()
    out = run.run_case(repro, evd)
    assert gate.check(evd, out)
    out.eigenvalues = out.eigenvalues.copy()
    out.eigenvalues[3] += 1e-3
    assert not gate.check(evd, out)
    out = run.run_case(repro, evd)
    out.eigenvectors = out.eigenvectors.copy()
    out.eigenvectors[:, 5] *= 1.001
    assert not gate.check(evd, out)
    band = run.run_case(repro, sbr)
    assert gate.check(sbr, band)
    band.band = band.band.copy()
    band.band[40, 2] = 1e-3  # outside the bandwidth
    assert not gate.check(sbr, band)


def test_wrong_answers_are_counted_and_fail_the_run(tiny, monkeypatch):
    real = run.run_case

    def off_by_a_bit(repro_, case):
        out = real(repro_, case)
        if case.kind == "evd":
            out.eigenvalues = out.eigenvalues + 1e-2
        return out

    monkeypatch.setattr(run, "run_case", off_by_a_bit)
    res = run.run_one(repro, tiny, 0.2, trace=False, setup_reps=1)
    assert not res["correct"]
    assert res["failed"] > 0 and res["attempted"] > res["failed"]


def test_wrappers_are_gone_after_the_traced_pass(tiny):
    driver = sys.modules["repro.eig.driver"]
    names = ("sbr_wy", "sbr_zy", "bulge_chase", "tridiag_eig_dc",
             "tridiag_eig_ql", "eigvals_bisect")
    before = {n: getattr(driver, n) for n in names}
    methods = {op: repro.GemmEngine.__dict__[op] for op in tracer.ENGINE_METHODS}
    ec_prepare = repro.EcTensorCoreEngine.__dict__["prepare_operand"]
    with tracer.Tracer().installed(repro):
        assert all(getattr(driver, n) is not f for n, f in before.items())
        assert repro.GemmEngine.__dict__["gemm"] is not methods["gemm"]
    run.traced_pass(repro, tiny, 0.2, run.Gate(), run.Tally())
    assert all(getattr(driver, n) is f for n, f in before.items())
    assert repro.sbr_wy is before["sbr_wy"]
    assert all(repro.GemmEngine.__dict__[op] is m for op, m in methods.items())
    assert repro.EcTensorCoreEngine.__dict__["prepare_operand"] is ec_prepare


def test_span_self_times_add_up_to_the_call(tiny):
    t = tracer.Tracer()
    for case in tiny.cases:
        with t.installed(repro), t.call(case.key):
            run.run_case(repro, case)
    by_id = {s["id"]: s for s in t.spans}
    for s in t.spans:
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    own = tracer.self_times(t.spans)
    assert all(v >= 0 for v in own.values())
    per_call = defaultdict(float)
    for s in t.spans:
        per_call[s["call"]] += own[s["id"]]
    for s in t.spans:
        if s["name"] == "call":
            assert per_call[s["call"]] == pytest.approx(s["end"] - s["start"], rel=1e-9)
    m = tracer.layer_metrics(t.spans)
    parts = m["driver.self_s"] + m["sbr.wall_s"] + m["bulge.wall_s"] + m["tridiag.wall_s"]
    assert parts == pytest.approx(m["call.wall_s"], rel=0.01)
    assert m["sbr.gemm_s"] <= m["sbr.wall_s"]


def test_flop_formulas_match_the_engine_records():
    eng = repro.make_engine("fp64", record=True)
    t = tracer.Tracer()
    with t.installed(repro), t.call("flops"):
        eng.gemm(np.ones((4, 3)), np.ones((3, 5)))
        eng.gemm(np.ones((3, 5)), np.ones((4, 3)), ta=True, tb=True)
        eng.gemm_batched(np.ones((2, 4, 3)), np.ones((2, 3, 5)))
        eng.gemm_batched(np.ones((2, 3, 4)), np.ones((2, 5, 3)), ta=True, tb=True)
        eng.syr2k(np.ones((6, 2)), np.ones((6, 2)))
    flops = [s["flop"] for s in t.spans if s["name"] == "gemm"]
    assert flops == [120, 120, 240, 240, 144]
    assert flops == [rec.flops for rec in eng.trace]


def test_only_the_outermost_launch_is_recorded():
    class Nested(type(repro.make_engine("fp64"))):
        def gemm(self, a, b, **kw):
            return super().gemm(a, b, **kw)

    t = tracer.Tracer()
    with t.installed(repro), t.call("nested"):
        Nested().gemm(np.ones((2, 2)), np.ones((2, 2)), tag="x")
    assert [s["name"] for s in t.spans] == ["call", "gemm"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "evd-small-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in run.child_env().items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _result(value, failed=0, nproc=2):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]}
               for m in run.spec()["end_to_end"]}
    return {"fingerprint": {"nproc": nproc},
            "workloads": {w["name"]: {"metrics": metrics, "failed": failed}
                          for w in run.spec()["workloads"]}}


def test_compare_verdicts():
    assert compare.verdict([1.0], [1.05], "lower", 0.1) == "same"
    assert compare.verdict([1.0], [1.2], "lower", 0.1) == "worse"
    assert compare.verdict([1.0], [0.8], "lower", 0.1) == "better"
    assert compare.verdict([1.0, 1.3], [1.2], "lower", 0.1) == "unresolved"
    assert compare.verdict([1.0, 1.3], [0.5, 0.6], "lower", 0.1) == "better"
    spec = run.spec()
    assert not compare.compare([_result(1.0)], [_result(1.02)], spec)[1]
    assert compare.compare([_result(1.0)], [_result(1.5)], spec)[1]
    assert compare.compare([_result(1.0)], [_result(1.0, failed=1)], spec)[1]
    assert compare.fingerprint_mismatch([_result(1.0), _result(1.0, nproc=4)]) == ["nproc"]
