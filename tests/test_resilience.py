"""Unit tests for the resilience subsystem: faults, detectors, policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, NumericalBreakdownError
from repro.gemm.engine import make_engine
from repro.precision.modes import Precision
from repro.resilience import (
    DetectorBank,
    DetectorConfig,
    EscalationLadder,
    FaultInjector,
    FaultSpec,
    ResilienceContext,
    ResilienceReport,
)
from repro.resilience.detectors import (
    effective_eps,
    has_nonfinite,
    max_abs,
    panel_orthogonality_defect,
    residual_probe,
    symmetry_defect,
)
from repro.resilience.context import run_unit

from conftest import random_symmetric


# ---------------------------------------------------------------------------
# Fault injector
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="x", kind="bitrot")

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            FaultSpec(site="x", fraction=0.0)

    @pytest.mark.parametrize("kind", ["nan", "inf", "sign_flip", "mantissa_noise", "overflow"])
    def test_all_kinds_construct(self, kind):
        assert FaultSpec(site="x", kind=kind).kind == kind


class TestFaultInjector:
    def test_fires_only_at_matching_site_and_index(self):
        inj = FaultInjector(FaultSpec(site="wy_right", kind="nan", call_index=2))
        a = np.ones((4, 4))
        assert not np.isnan(inj.apply("panel_tsqr", a)).any()
        assert not np.isnan(inj.apply("wy_right", a)).any()   # index 0
        assert not np.isnan(inj.apply("wy_right", a)).any()   # index 1
        out = inj.apply("wy_right", a)                        # index 2: fires
        assert np.isnan(out).any()
        assert len(inj.fired) == 1
        rec = inj.fired[0]
        assert (rec.site, rec.call_index, rec.kind) == ("wy_right", 2, "nan")

    def test_one_shot_by_default(self):
        inj = FaultInjector(FaultSpec(site="s", kind="inf", call_index=0))
        assert np.isinf(inj.apply("s", np.ones(8))).any()
        for _ in range(3):
            assert not np.isinf(inj.apply("s", np.ones(8))).any()
        assert len(inj.fired) == 1

    def test_persistent_fault_keeps_firing(self):
        inj = FaultInjector(FaultSpec(site="s", kind="nan", call_index=1, count=3))
        hits = [np.isnan(inj.apply("s", np.ones(8))).any() for _ in range(6)]
        assert hits == [False, True, True, True, False, False]

    def test_glob_site_patterns(self):
        inj = FaultInjector(FaultSpec(site="wy_*", kind="nan", call_index=0))
        out = inj.apply("wy_full_right", np.ones(8))
        assert np.isnan(out).any()

    def test_deterministic_corruption(self):
        a = np.arange(100, dtype=np.float64).reshape(10, 10)
        spec = FaultSpec(site="s", kind="sign_flip", fraction=0.2, seed=7)
        out1 = FaultInjector(spec).apply("s", a)
        out2 = FaultInjector(spec).apply("s", a)
        np.testing.assert_array_equal(out1, out2)
        assert (out1 != a).any()

    def test_does_not_mutate_input(self):
        a = np.ones((4, 4))
        FaultInjector(FaultSpec(site="s", kind="nan")).apply("s", a)
        assert not np.isnan(a).any()

    def test_overflow_scales_entries(self):
        inj = FaultInjector(FaultSpec(site="s", kind="overflow", scale=1e30))
        out = inj.apply("s", np.ones(50))
        assert max_abs(out) >= 1e29
        assert np.isfinite(out).all()

    def test_reset_restores_counters(self):
        inj = FaultInjector(FaultSpec(site="s", kind="nan", call_index=0))
        inj.apply("s", np.ones(4))
        inj.reset()
        assert inj.fired == []
        assert np.isnan(inj.apply("s", np.ones(4))).any()


# ---------------------------------------------------------------------------
# Detector measurements
# ---------------------------------------------------------------------------


class TestMeasurements:
    def test_has_nonfinite(self):
        assert not has_nonfinite(np.ones(4))
        assert has_nonfinite(np.array([1.0, np.nan]))
        assert has_nonfinite(np.array([1.0, np.inf]))

    def test_max_abs_ignores_nan(self):
        assert max_abs(np.array([1.0, -3.0, np.nan])) == 3.0
        assert max_abs(np.array([], dtype=np.float64)) == 0.0

    def test_orthogonality_defect_clean_vs_corrupt(self, rng):
        from repro.la import blocked_qr, build_wy

        x = rng.standard_normal((32, 6))
        v_cols, betas, _ = blocked_qr(x)
        w, y = build_wy(v_cols, betas)
        assert panel_orthogonality_defect(w, y) < 1e-12
        w_bad = w.copy()
        w_bad[0, 0] += 0.05
        assert panel_orthogonality_defect(w_bad, y) > 1e-4

    def test_symmetry_defect(self, rng):
        a = random_symmetric(80, rng)
        assert symmetry_defect(a) == 0.0
        a[3, 60] += 1.0
        assert symmetry_defect(a, sample=None) >= 1.0

    def test_residual_probe_consistent_vs_broken(self, rng):
        from repro.gemm.engine import make_engine
        from repro.sbr.wy import sbr_wy

        a = random_symmetric(48, rng)
        res = sbr_wy(a, 4, 16, engine=make_engine("fp64"))
        assert residual_probe(a, res.blocks, res.band) < 1e-12
        assert residual_probe(a, res.blocks, 2.0 * res.band) > 1e-2

    @pytest.mark.parametrize("method", ["wy", "zy"])
    def test_residual_detector_runs_without_q(self, rng, method):
        # The eigensolvers' stage 1 forms no Q; the opt-in probe applies
        # the blocks, so it still runs and trips on a tolerance no
        # rounding error meets.
        from repro.sbr.methods import sbr_method

        a = random_symmetric(48, rng)

        def reduce(factor):
            ctx = ResilienceContext(on_breakdown="raise", detectors=DetectorConfig(
                residual=True, residual_eps_factor=factor))
            return sbr_method(method).reduce(a, 4, 16, engine=make_engine("fp32"),
                                             want_q=False, resilience=ctx)

        assert reduce(1e4).q is None
        with pytest.raises(NumericalBreakdownError) as ei:
            reduce(1e-6)
        assert ei.value.detector == "residual"

    def test_effective_eps_floors_at_storage(self):
        arr32 = np.zeros(2, dtype=np.float32)
        eps = effective_eps(Precision.FP64, arr32)
        assert eps == pytest.approx(float(np.finfo(np.float32).eps))
        assert effective_eps(Precision.FP16_TC, arr32) == Precision.FP16_TC.machine_eps


# ---------------------------------------------------------------------------
# Detector bank thresholds
# ---------------------------------------------------------------------------


class TestDetectorBank:
    def test_check_output_nan(self):
        bank = DetectorBank()
        with pytest.raises(NumericalBreakdownError) as ei:
            bank.check_output(
                np.array([1.0, np.nan]), site="wy_right",
                phase="sbr.panel", panel=3, precision=Precision.FP32,
            )
        exc = ei.value
        assert exc.detector == "nonfinite"
        assert exc.phase == "sbr.panel"
        assert exc.panel == 3
        assert exc.site == "wy_right"
        assert "sbr.panel" in str(exc)

    def test_check_output_magnitude(self):
        bank = DetectorBank(DetectorConfig(magnitude_limit=1e10))
        with pytest.raises(NumericalBreakdownError) as ei:
            bank.check_output(
                np.array([1e12]), site="s", phase=None, panel=None,
                precision=Precision.FP32,
            )
        assert ei.value.detector == "magnitude"
        assert ei.value.value == pytest.approx(1e12)
        assert ei.value.threshold == pytest.approx(1e10)

    def test_check_output_clean_passes(self):
        DetectorBank().check_output(
            np.ones(8), site="s", phase=None, panel=None, precision=Precision.FP16_TC
        )

    def test_detectors_can_be_disabled(self):
        bank = DetectorBank(DetectorConfig(nonfinite=False, magnitude=False))
        bank.check_output(
            np.array([np.nan, 1e30]), site="s", phase=None, panel=None,
            precision=Precision.FP32,
        )

    @staticmethod
    def _verdict(bank, arr):
        """(detector, value, threshold) of a raised check, None if clean."""
        try:
            bank.check_output(arr, site="s", phase=None, panel=None,
                              precision=Precision.FP32)
        except NumericalBreakdownError as exc:
            return exc.detector, exc.value, exc.threshold
        return None

    @pytest.mark.parametrize("arr,expected", [
        (np.array([1.0, np.nan, 2.0]), "nonfinite"),
        (np.array([1.0, np.inf]), "nonfinite"),
        (np.array([-np.inf, 1.0]), "nonfinite"),
        (np.full((3, 3), np.nan), "nonfinite"),
        (np.array([1.0, 1e30, np.nan]), "nonfinite"),  # precedence
        (np.array([[1.0, -1e30]]), "magnitude"),
        (np.empty((0, 4)), None),
        (np.ones((2, 5)), None),
    ])
    def test_fused_check_output_matches_separate_passes(self, arr, expected):
        # Both detectors on share one max|arr| pass; the verdict, fields,
        # and non-finite-first precedence equal the separate scans.
        fused = DetectorBank()
        got = self._verdict(fused, arr)
        assert (got[0] if got else None) == expected
        if expected == "magnitude":
            assert got[1] == pytest.approx(1e30)
            assert got[2] == fused.config.magnitude_limit
        # Same verdict as the two detectors run one after the other.
        nonfinite = self._verdict(
            DetectorBank(DetectorConfig(magnitude=False)), arr)
        magnitude = self._verdict(
            DetectorBank(DetectorConfig(nonfinite=False)), arr)
        assert got == (nonfinite or magnitude)

    def test_single_detector_configs(self):
        only_nonfinite = DetectorBank(DetectorConfig(magnitude=False))
        only_magnitude = DetectorBank(DetectorConfig(nonfinite=False))
        big = np.array([1e30])
        assert self._verdict(only_nonfinite, big) is None
        assert self._verdict(only_nonfinite, np.array([np.inf]))[0] == "nonfinite"
        assert self._verdict(only_magnitude, big)[0] == "magnitude"
        # The magnitude scan ignores NaN; an Inf still exceeds the limit.
        assert self._verdict(only_magnitude, np.array([np.nan, 1.0])) is None
        assert self._verdict(only_magnitude, np.array([np.inf]))[0] == "magnitude"

    def test_fused_check_with_infinite_limit_still_flags_inf(self):
        bank = DetectorBank(DetectorConfig(magnitude_limit=np.inf))
        assert self._verdict(bank, np.array([np.inf]))[0] == "nonfinite"
        assert self._verdict(bank, np.array([1e300])) is None

    def test_norm_growth(self):
        bank = DetectorBank(DetectorConfig(norm_growth_factor=10.0))
        bank.check_output(
            np.full(4, 5.0), baseline=1.0, site="s", phase=None, panel=None,
            precision=Precision.FP32,
        )
        with pytest.raises(NumericalBreakdownError) as ei:
            bank.check_output(
                np.full(4, 50.0), baseline=1.0, site="s", phase=None,
                panel=None, precision=Precision.FP32,
            )
        assert ei.value.detector == "norm_growth"
        assert ei.value.value == 50.0 and ei.value.threshold == 10.0
        # Magnitude outranks growth, and without a baseline the same
        # array is only judged against the overflow guard.
        with pytest.raises(NumericalBreakdownError) as ei:
            bank.check_output(
                np.array([1e30]), baseline=1.0, site="s", phase=None,
                panel=None, precision=Precision.FP32,
            )
        assert ei.value.detector == "magnitude"
        assert self._verdict(bank, np.full(4, 50.0)) is None

    def test_symmetry_drift(self, rng):
        bank = DetectorBank()
        a = random_symmetric(32, rng)
        bank.check_symmetry(a, phase=None, panel=None, precision=Precision.FP32)
        a[1, 30] += 1.0
        with pytest.raises(NumericalBreakdownError) as ei:
            bank.check_symmetry(a, phase=None, panel=None, precision=Precision.FP32)
        assert ei.value.detector == "symmetry"


# ---------------------------------------------------------------------------
# Escalation ladder & precision ordering
# ---------------------------------------------------------------------------


class TestLadder:
    def test_next_safer_chain(self):
        assert Precision.FP16_TC.next_safer is Precision.FP16_EC_TC
        assert Precision.FP16_EC_TC.next_safer is Precision.TF32_TC
        assert Precision.BF16_TC.next_safer is Precision.TF32_TC
        assert Precision.TF32_TC.next_safer is Precision.FP32
        assert Precision.FP32.next_safer is Precision.FP64
        assert Precision.FP64.next_safer is None

    def test_ladder_method_lists_safer_modes(self):
        assert Precision.FP16_TC.ladder() == [
            Precision.FP16_TC, Precision.FP16_EC_TC, Precision.TF32_TC,
            Precision.FP32, Precision.FP64,
        ]
        assert Precision.FP64.ladder() == [Precision.FP64]

    def test_every_ladder_ends_at_fp64_without_cycles(self):
        for mode in Precision:
            chain = mode.ladder()
            assert chain[0] is mode
            assert chain[-1] is Precision.FP64
            assert len(set(chain)) == len(chain)

    def test_ladder_never_widens_fp16_operand_range(self):
        # The ladder is monotone in *safety*: eps never exceeds the
        # mode's own, except FP16_EC_TC -> TF32_TC which trades eps for
        # fp32 exponent range (the overflow hazard detectors care about).
        for mode in Precision:
            for prev, nxt in zip(mode.ladder(), mode.ladder()[1:]):
                if prev is Precision.FP16_EC_TC:
                    continue
                assert nxt.machine_eps <= prev.machine_eps

    def test_single_rung(self):
        lad = EscalationLadder()
        assert lad.escalate(Precision.FP32, 1) is Precision.FP64
        assert lad.escalate(Precision.FP64, 1) is None

    def test_exponential_widening(self):
        lad = EscalationLadder()
        assert lad.rungs_for_attempt(1) == 1
        assert lad.rungs_for_attempt(2) == 2
        assert lad.rungs_for_attempt(3) == 4
        # From FP16_TC: attempt 2 climbs 2 rungs -> TF32_TC.
        assert lad.escalate(Precision.FP16_TC, 2) is Precision.TF32_TC
        # Attempt 3 climbs 4 rungs -> clamps at FP64.
        assert lad.escalate(Precision.FP16_TC, 3) is Precision.FP64

    def test_widen_scales_base(self):
        lad = EscalationLadder(widen=2)
        assert lad.escalate(Precision.FP16_TC, 1) is Precision.TF32_TC


# ---------------------------------------------------------------------------
# Report and context plumbing
# ---------------------------------------------------------------------------


class TestReportAndContext:
    def test_report_empty_and_summary(self):
        rep = ResilienceReport()
        assert rep.empty
        assert "clean" in rep.summary()
        rep.retries = 1
        assert not rep.empty
        assert "1 retry" in rep.summary()

    def test_report_to_dict_roundtrips_json(self):
        import json

        rep = ResilienceReport()
        rep.final_precision["sbr"] = "fp32"
        json.dumps(rep.to_dict())

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="on_breakdown"):
            ResilienceContext(on_breakdown="panic")

    def test_wrap_engine_idempotent(self):
        from repro.gemm.engine import make_engine

        ctx = ResilienceContext()
        eng = ctx.wrap_engine(make_engine("fp32"))
        assert ctx.wrap_engine(eng) is eng

    def test_engine_escalation_swaps_and_restores(self):
        from repro.gemm.engine import make_engine

        ctx = ResilienceContext()
        eng = ctx.wrap_engine(make_engine("fp32"))
        assert not eng.escalated
        eng.escalate_to(Precision.FP64)
        assert eng.escalated and eng.precision is Precision.FP64
        # Storage dtype stays the base policy's.
        assert eng.working_dtype == np.dtype(np.float32)
        eng.restore_base()
        assert eng.precision is Precision.FP32

    def test_detection_recorded_with_unit_context(self):
        ctx = ResilienceContext()
        with pytest.raises(NumericalBreakdownError):
            with ctx.unit("sbr.panel", panel=5):
                ctx.check_array(np.array([np.nan]), site="probe")
        assert len(ctx.report.detections) == 1
        det = ctx.report.detections[0]
        assert det.phase == "sbr.panel" and det.panel == 5

    def test_handle_breakdown_raise_mode(self):
        ctx = ResilienceContext(on_breakdown="raise")
        exc = NumericalBreakdownError("x")
        assert not ctx.handle_breakdown(exc, engine=None, attempt=0, phase="p")

    def test_handle_breakdown_budget(self):
        ctx = ResilienceContext(ladder=EscalationLadder(max_retries=2))
        exc = NumericalBreakdownError("x")
        assert ctx.handle_breakdown(exc, engine=None, attempt=0, phase="p")
        assert ctx.handle_breakdown(exc, engine=None, attempt=1, phase="p")
        assert not ctx.handle_breakdown(exc, engine=None, attempt=2, phase="p")
        assert ctx.report.retries == 2

    def test_best_effort_final_pass_granted_once(self):
        ctx = ResilienceContext(
            on_breakdown="best_effort", ladder=EscalationLadder(max_retries=0)
        )
        exc = NumericalBreakdownError("x")
        assert ctx.handle_breakdown(exc, engine=None, attempt=0, phase="p")
        assert ctx.report.best_effort == ["p"]
        # The suppressed final pass failing again must not loop forever.
        assert not ctx.handle_breakdown(exc, engine=None, attempt=1, phase="p")


class _Unit:
    """A unit's mutable state plus a step that writes it and may fail."""

    def __init__(self, failures=0, exc=NumericalBreakdownError):
        self.x = np.zeros(3)
        self.failures = failures
        self.exc = exc
        self.snapshots = 0
        self.seen = []  # state at the start of each attempt

    def snapshot(self):
        self.snapshots += 1
        saved = self.x.copy()

        def restore():
            self.x[...] = saved

        return restore

    def step(self, engine=None):
        self.seen.append((self.x.copy(), engine and engine.precision))
        self.x += 1.0
        if len(self.seen) <= self.failures:
            raise self.exc("injected")
        return "done"


class TestRunUnit:
    """The one retry loop every retryable unit runs through."""

    def test_no_snapshot_without_resilience_or_flush(self):
        u = _Unit()
        assert run_unit(None, "p", u.step, snapshot=u.snapshot) == "done"
        assert u.snapshots == 0

    def test_no_snapshot_under_raise(self):
        u = _Unit(failures=1)
        ctx = ResilienceContext(on_breakdown="raise")
        with pytest.raises(NumericalBreakdownError):
            run_unit(ctx, "p", u.step, snapshot=u.snapshot)
        assert u.snapshots == 0 and ctx.report.retries == 0

    def test_snapshot_taken_once_across_attempts(self):
        u = _Unit(failures=2)
        ctx = ResilienceContext(ladder=EscalationLadder(max_retries=3))
        assert run_unit(ctx, "p", u.step, snapshot=u.snapshot) == "done"
        assert u.snapshots == 1 and len(u.seen) == 3
        assert ctx.report.retries == 2

    def test_retry_restores_then_reruns_escalated(self):
        ctx = ResilienceContext()
        eng = ctx.wrap_engine(make_engine("fp16_tc"))
        u = _Unit(failures=1)
        run_unit(ctx, "sbr.panel", lambda: u.step(eng), engine=eng, panel=2,
                 snapshot=u.snapshot)
        (x0, p0), (x1, p1) = u.seen
        np.testing.assert_array_equal(x1, x0)  # rolled back before the rerun
        assert p0 is Precision.FP16_TC
        assert p1 is ctx.ladder.escalate(Precision.FP16_TC, 1)
        esc = ctx.report.escalations
        assert [(e.phase, e.panel) for e in esc] == [("sbr.panel", 2)]

    def test_exhausted_budget_propagates(self):
        u = _Unit(failures=10)
        ctx = ResilienceContext(ladder=EscalationLadder(max_retries=1))
        with pytest.raises(NumericalBreakdownError):
            run_unit(ctx, "p", u.step, snapshot=u.snapshot)
        assert len(u.seen) == 2 and ctx.report.retries == 1

    @pytest.mark.parametrize("mode", [None, "raise", "escalate"])
    def test_interrupt_restores_flushes_once_and_reraises(self, mode):
        u = _Unit(failures=1, exc=KeyboardInterrupt)
        ctx = None if mode is None else ResilienceContext(on_breakdown=mode)
        flushed = []
        with pytest.raises(KeyboardInterrupt):
            run_unit(ctx, "p", u.step, snapshot=u.snapshot,
                     on_interrupt=lambda: flushed.append(u.x.copy()))
        assert u.snapshots == 1 and len(u.seen) == 1
        assert len(flushed) == 1
        np.testing.assert_array_equal(flushed[0], np.zeros(3))
        np.testing.assert_array_equal(u.x, np.zeros(3))


class TestBackoff:
    """Shared exponential backoff (serve retries + escalation ladder)."""

    def test_exponential_growth_without_jitter(self):
        from repro.resilience import backoff
        delays = [backoff(k, base=0.05, cap=5.0) for k in (1, 2, 3, 4)]
        assert delays == [0.05, 0.1, 0.2, 0.4]

    def test_cap_bounds_delay(self):
        from repro.resilience import backoff
        assert backoff(50, base=0.05, cap=1.5) == 1.5

    def test_zero_for_nonpositive_attempt_or_base(self):
        from repro.resilience import backoff
        assert backoff(0) == 0.0
        assert backoff(-3) == 0.0
        assert backoff(4, base=0.0) == 0.0

    def test_jitter_stays_in_window(self):
        from repro.resilience import backoff
        rng = np.random.default_rng(0)
        for k in range(1, 8):
            nominal = backoff(k, base=0.05, cap=5.0)
            jittered = backoff(k, base=0.05, cap=5.0, jitter=0.5, rng=rng)
            assert nominal * 0.5 <= jittered <= nominal

    def test_deterministic_under_seeded_rng(self):
        from repro.resilience import backoff
        a = [backoff(k, rng=np.random.default_rng(7)) for k in (1, 2, 3)]
        b = [backoff(k, rng=np.random.default_rng(7)) for k in (1, 2, 3)]
        assert a == b

    def test_ladder_delay_defaults_immediate(self):
        from repro.resilience import EscalationLadder
        ladder = EscalationLadder()
        assert ladder.delay(1) == 0.0  # in-process retries don't sleep

    def test_ladder_delay_honors_backoff_base(self):
        from repro.resilience import EscalationLadder
        ladder = EscalationLadder(backoff_base=0.1, backoff_cap=0.5)
        assert ladder.delay(1) == 0.1
        assert ladder.delay(2) == 0.2
        assert ladder.delay(9) == 0.5
