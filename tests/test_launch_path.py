"""The one launch path: ``GemmEngine._launch`` and the resilient guard.

Every ``gemm``/``gemm_batched``/``syr2k`` call is validated by the
public entry point and recorded/timed in exactly one place; under the
resilience layer the engine is a ``GemmEngine`` subclass that only holds
the escalation state and hands each launch to
``ResilienceContext.after_launch``.
"""

from __future__ import annotations

import cProfile
import pstats

import numpy as np
import pytest

from repro import syevd_2stage
from repro.gemm.engine import GemmEngine, make_engine
from repro.precision.modes import Precision
from repro.resilience import FaultInjector, FaultSpec, ResilienceContext, ResilientEngine
from repro.sbr.wy import sbr_wy


def _symmetric(n, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def _stream(trace):
    return [(r.engine, r.op, r.m, r.n, r.k, r.tag) for r in trace]


class TestResilientEngineShape:
    def test_is_an_engine_without_its_own_entry_points(self):
        eng = ResilienceContext().wrap_engine(make_engine("fp32"))
        assert isinstance(eng, GemmEngine)
        for op in ("gemm", "gemm_batched", "syr2k"):
            assert op not in ResilientEngine.__dict__

    def test_workspace_and_trace_follow_the_base_engine(self):
        base = make_engine("fp16_tc", record=True)
        eng = ResilienceContext().wrap_engine(base)
        ws = object()
        eng.workspace = ws
        assert base.workspace is ws and eng.workspace is ws
        eng.escalate_to(Precision.FP64)
        assert eng.workspace is ws
        assert eng.trace is base.trace
        assert eng.working_dtype == base.working_dtype

    def test_prepared_operand_reaches_a_non_ec_kernel_as_its_array(self, rng):
        eng = ResilienceContext().wrap_engine(make_engine("fp16_ec_tc"))
        a = rng.standard_normal((8, 8)).astype(np.float32)
        b = rng.standard_normal((8, 3)).astype(np.float32)
        handle = eng.prepare_operand(a, tag="oa")
        np.testing.assert_array_equal(
            eng.gemm(handle, b), make_engine("fp16_ec_tc").gemm(a, b)
        )
        eng.escalate_to(Precision.TF32_TC)
        np.testing.assert_array_equal(
            eng.gemm(handle, b), make_engine("tf32_tc").gemm(a, b)
        )

    def test_aliased_out_is_verified_before_the_copy_back(self, rng):
        # The guard runs inside the launch, before gemm copies a product
        # computed for an aliased out= back over its operand, so ABFT
        # still has intact operands to check and replay against.
        inj = FaultInjector(FaultSpec(site="t", kind="bitflip", seed=1))
        ctx = ResilienceContext(abft="correct", injector=inj)
        eng = ctx.wrap_engine(make_engine("fp64"))
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        want = a @ b
        res = eng.gemm(a, b, tag="t", out=a)
        assert res is a and inj.fired
        np.testing.assert_array_equal(a, want)
        assert ctx.abft.report.corrected == 1


class TestDriverLaunchPath:
    def test_escalated_launches_keep_the_recorded_stream(self):
        # A NaN in the second wy_right launch escalates panel 1 from
        # fp16_tc to fp16_ec_tc.  The step's outputs are scanned once,
        # at its end, so the failed attempt runs its two wy_left
        # launches too: the stream keeps the first twelve tc launches
        # (panel 0 plus the whole failed attempt), then re-runs from the
        # start of panel 1 under the escalated engine's name; the
        # escalation is sticky, so every later stage-1 launch is ectc.
        a = _symmetric(64)
        clean = syevd_2stage(a, b=8, precision="fp16_tc", record_trace=True,
                             check_input=False)
        inj = FaultInjector(FaultSpec(site="wy_right", kind="nan", call_index=1))
        res = syevd_2stage(a, b=8, precision="fp16_tc", record_trace=True,
                           faults=inj, check_input=False)
        base = _stream(clean.engine.trace)
        got = _stream(res.engine.trace)
        assert len(base) == 49 and {r[0] for r in base} == {"tc"}
        assert len(got) == 56
        assert [r[0] for r in got] == ["tc"] * 12 + ["ectc"] * 44
        assert got == base[:12] + [("ectc",) + r[1:] for r in base[5:]]
        assert got[9] == ("tc", "gemm", 56, 8, 16, "wy_right")
        assert [r[5] for r in got[10:12]] == ["wy_left", "wy_left"]
        assert got[12] == ("ectc", "gemm", 48, 8, 8, "panel_reconstruct")

    def test_default_path_hands_the_run_arena_to_the_stage1_engine(self):
        a = _symmetric(96)
        res = syevd_2stage(a, b=8, precision="fp16_ec_tc")
        bare = syevd_2stage(a, b=8, precision="fp16_ec_tc", on_breakdown=None)
        # The engine's prepared and per-launch splits went through the run
        # arena, which it was lent for stage 1 only.
        tags = res.workspace.stats()["by_tag"]
        assert {"ec_sbr_OA_hi", "ec_sbr_W_hi_t", "ec_a_hi"} <= set(tags)
        assert res.engine.workspace is None
        np.testing.assert_array_equal(res.sbr.band, bare.sbr.band)
        np.testing.assert_array_equal(res.eigenvalues, bare.eigenvalues)
        np.testing.assert_array_equal(res.eigenvectors, bare.eigenvectors)

    def test_prepared_oa_survives_escalation_to_tf32(self):
        a = _symmetric(96)
        inj = FaultInjector(FaultSpec(site="wy_oaw", kind="nan", call_index=1))
        res = syevd_2stage(a, b=8, precision="fp16_ec_tc", faults=inj)
        esc = res.resilience_report.escalations
        assert [(e.phase, e.from_precision, e.to_precision) for e in esc] == [
            ("sbr.panel", "fp16_ec_tc", "tf32_tc")
        ]
        x, lam = res.eigenvectors, res.eigenvalues
        resid = np.linalg.norm(a @ x - x * lam) / np.linalg.norm(a)
        assert resid < 1e-2


def _calls_per_launch(fn) -> float:
    fn()
    prof = cProfile.Profile()
    prof.enable()
    for _ in range(1000):
        fn()
    prof.disable()
    return pstats.Stats(prof).total_calls / 1000 - 1


class TestPerLaunchCost:
    # Python calls per launch (profiled calls / 1000, minus the lambda).
    # "bare" is the count before the launch path was merged; the merged
    # path must not pay more on any entry point.  "guarded" is a
    # ResilienceContext with neither ABFT nor faults: its engine launches
    # through the base engine's own launch (the unit scans its outputs
    # once), so it costs what a bare launch does: 13/11/9, down from
    # 14/12/10 when it paid one call to skip the guard.
    BOUNDS = {"bare": (15, 13, 10), "guarded": (13, 11, 9)}

    @pytest.mark.parametrize("kind", ["bare", "guarded"])
    def test_calls_per_launch_do_not_grow(self, rng, kind):
        eng = make_engine("fp64")
        if kind == "guarded":
            eng = ResilienceContext().wrap_engine(eng)
        a, b, o = (rng.standard_normal((8, 8)) for _ in range(3))
        sa, sb, so = (rng.standard_normal((2, 8, 8)) for _ in range(3))
        y, z = rng.standard_normal((8, 4)), rng.standard_normal((8, 4))
        c = np.zeros((8, 8))
        got = (
            _calls_per_launch(lambda: eng.gemm(a, b, out=o)),
            _calls_per_launch(lambda: eng.gemm_batched(sa, sb, out=so)),
            _calls_per_launch(
                lambda: eng.syr2k(y, z, out=c, alpha=-1.0, beta=1.0)),
        )
        for n_calls, bound in zip(got, self.BOUNDS[kind]):
            assert n_calls <= bound + 0.01, (kind, got)


class TestPerPanelStepCost:
    # Python calls per panel step of sbr_wy (n=96, b=8, nb=32, fp32: 11
    # steps), profiled over 20 calls.  "guarded" is the step under the
    # default ResilienceContext; "guards" is what the context adds to the
    # same call without one (2435 calls, 221.4 per step).  With a
    # two-product orthogonality probe, a NaN-ignoring max_abs, one
    # check_output call per scanned array and a guarded launch path they
    # read 309.6 and 88.2; with the one-product probe, one check_array
    # call per step and the base engine's launch, 261.4 and 40.0.
    BOUNDS = {"guarded": 261.37, "guards": 40.0}
    STEPS = 11

    def test_calls_per_guarded_step_do_not_grow(self):
        a = _symmetric(96)

        def calls(ctx):
            fn = lambda: sbr_wy(a, 8, 32, engine=make_engine("fp32"),
                                want_q=False, resilience=ctx())
            fn()
            prof = cProfile.Profile()
            prof.enable()
            for _ in range(20):
                fn()
            prof.disable()
            # Summed per code object: pstats keys by (file, line, name),
            # and every dataclass __init__ shares one such key.
            return sum(e.callcount for e in prof.getstats()) / 20

        guarded = calls(ResilienceContext)
        guards = guarded - calls(lambda: None)
        got = {"guarded": guarded / self.STEPS, "guards": guards / self.STEPS}
        for kind, bound in self.BOUNDS.items():
            assert got[kind] <= bound + 0.01, got
