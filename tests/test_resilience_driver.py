"""Driver-level resilience: fault recovery, degradation modes, reporting.

The acceptance test of the subsystem: inject NaN/overflow faults into
each phase of the two-stage eigensolver (panel TSQR, WY trailing update,
bulge chase) and verify that ``on_breakdown="escalate"`` recovers with
the accuracy of the escalated mode, that ``"raise"`` names the failed
phase, that ``"best_effort"`` always returns, and that everything is
visible both in ``EvdResult.resilience_report`` and in the obs manifest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eig.driver import syevd_1stage, syevd_2stage, syevd_selected
from repro.errors import (
    ConvergenceError,
    NumericalBreakdownError,
    ReproError,
    ShapeError,
    SingularMatrixError,
)
from repro.gemm.engine import make_engine
from repro.matrices import generate_symmetric
from repro.precision.modes import Precision
from repro.resilience import (
    EscalationLadder, FaultInjector, FaultSpec, ResilienceContext,
)
from repro.sbr.wy import sbr_wy
from repro.sbr.zy import sbr_zy
from repro.validation import Validated

from conftest import random_symmetric


@pytest.fixture
def sym96(rng):
    return random_symmetric(96, rng)


def eig_error(res, a):
    return float(np.abs(np.sort(res.eigenvalues) - np.linalg.eigvalsh(a)).max())


# ---------------------------------------------------------------------------
# Healthy runs: the layer is invisible
# ---------------------------------------------------------------------------


class TestHealthyRuns:
    def test_default_run_has_empty_report(self, sym96):
        res = syevd_2stage(sym96, b=8, nb=32, precision="fp32")
        assert res.resilience_report is not None
        assert res.resilience_report.empty
        assert res.resilience_report.final_precision["sbr"] == "fp32"

    def test_layer_can_be_disabled(self, sym96):
        res = syevd_2stage(sym96, b=8, nb=32, on_breakdown=None)
        assert res.resilience_report is None

    @pytest.mark.parametrize("method", ["wy", "zy"])
    def test_tiny_norm_run_is_clean(self, sym96, method):
        # The growth bound scales with max|A|; the scale-free W, Y and Q
        # a unit writes must not be held to it.
        res = syevd_2stage(sym96 * 1e-150, b=8, nb=32, method=method,
                           precision="fp64")
        assert res.resilience_report.empty, res.resilience_report.summary()

    def test_resilient_run_matches_unprotected_run(self, sym96):
        protected = syevd_2stage(sym96, b=8, nb=32, precision="fp32")
        bare = syevd_2stage(sym96, b=8, nb=32, precision="fp32", on_breakdown=None)
        np.testing.assert_array_equal(protected.eigenvalues, bare.eigenvalues)

    @pytest.mark.parametrize("precision", ["fp64", "fp32", "tf32_tc",
                                           "fp16_tc", "bf16_tc", "fp16_ec_tc"])
    @pytest.mark.parametrize("dist", ["geo", "normal", "cluster1"])
    def test_precision_sweep_round_trips_clean(self, precision, dist):
        # Property sweep: every precision mode round-trips through the
        # resilient driver on SPD (geo), indefinite (normal), and
        # clustered spectra without tripping a single detector.
        a, _ = generate_symmetric(
            64, distribution=dist, cond=1e2, rng=np.random.default_rng(3)
        )
        res = syevd_2stage(a, b=8, nb=32, precision=precision)
        assert res.resilience_report.empty, res.resilience_report.summary()
        eps = Precision.from_name(precision).machine_eps
        assert eig_error(res, a) < 5e3 * eps * 64


# ---------------------------------------------------------------------------
# Fault recovery per phase (the acceptance criterion)
# ---------------------------------------------------------------------------


PHASE_FAULTS = [
    ("panel_*", "panel factorization"),      # TSQR tree / WY reconstruction
    ("wy_right", "deferred trailing update"),
    ("wy_full_right", "big-block trailing update"),
    ("bulge", "bulge chase"),
]


class TestEscalateRecovery:
    @pytest.mark.parametrize("site,label", PHASE_FAULTS, ids=[s for s, _ in PHASE_FAULTS])
    @pytest.mark.parametrize("kind", ["nan", "overflow"])
    def test_transient_fault_recovers(self, sym96, site, label, kind):
        inj = FaultInjector(FaultSpec(site=site, kind=kind, call_index=0))
        res = syevd_2stage(sym96, b=8, nb=32, precision="fp32", faults=inj)
        rep = res.resilience_report
        assert rep.faults_injected, f"{label}: fault never fired"
        assert rep.detections, f"{label}: no detector fired"
        assert rep.retries >= 1
        # Recovery accuracy within the (escalated) run's eps bound.
        assert eig_error(res, sym96) < 5e3 * Precision.FP32.machine_eps * 96

    def test_escalation_recorded_with_phase_and_panel(self, sym96):
        inj = FaultInjector(FaultSpec(site="wy_right", kind="nan", call_index=1))
        res = syevd_2stage(sym96, b=8, nb=32, precision="fp32", faults=inj)
        escs = res.resilience_report.escalations
        assert escs and escs[0].phase == "sbr.panel"
        assert escs[0].from_precision == "fp32"
        assert escs[0].to_precision == "fp64"
        assert escs[0].panel is not None

    def test_fp16_ladder_climbs_one_rung(self, sym96):
        inj = FaultInjector(FaultSpec(site="panel_*", kind="nan", call_index=0))
        res = syevd_2stage(sym96, b=8, nb=32, precision="fp16_tc", faults=inj)
        escs = res.resilience_report.escalations
        assert [(e.from_precision, e.to_precision) for e in escs] == [
            ("fp16_tc", "fp16_ec_tc")
        ]

    def test_zy_method_recovers(self, sym96):
        inj = FaultInjector(FaultSpec(site="zy_aw", kind="nan", call_index=1))
        res = syevd_2stage(sym96, b=8, method="zy", precision="fp32", faults=inj)
        rep = res.resilience_report
        assert rep.detections and rep.retries >= 1
        assert eig_error(res, sym96) < 5e3 * Precision.FP32.machine_eps * 96

    def test_selected_driver_recovers(self, sym96):
        inj = FaultInjector(FaultSpec(site="wy_right", kind="inf", call_index=0))
        res = syevd_selected(sym96, select=(0, 5), b=8, nb=32,
                             precision="fp32", faults=inj)
        rep = res.resilience_report
        assert rep.detections
        ref = np.linalg.eigvalsh(sym96)[:5]
        assert np.abs(res.eigenvalues - ref).max() < 5e3 * Precision.FP32.machine_eps * 96

    def test_silent_sign_flip_caught_by_drift_detectors(self, sym96):
        # sign_flip leaves all entries finite — only the invariant-drift
        # detectors (orthogonality / symmetry / norm) can see it.
        inj = FaultInjector(
            FaultSpec(site="panel_reconstruct", kind="sign_flip",
                      call_index=0, fraction=0.25)
        )
        res = syevd_2stage(sym96, b=8, nb=32, precision="fp32", faults=inj)
        rep = res.resilience_report
        assert any(d.detector == "orthogonality" for d in rep.detections)
        assert eig_error(res, sym96) < 5e3 * Precision.FP32.machine_eps * 96


# ---------------------------------------------------------------------------
# Per-unit detection: every stage-1 GEMM site is caught in its own unit
# ---------------------------------------------------------------------------


UNIT_SITES = [("wy", s) for s in (
    "panel_tsqr", "panel_reconstruct", "form_w", "wy_oaw", "wy_right",
    "wy_left", "wy_full_right", "wy_full_left", "form_q",
)] + [("zy", s) for s in ("zy_aw", "zy_wtaw", "zy_z", "zy_syr2k", "form_q")]


@pytest.fixture(scope="module")
def sym288():
    # Panels of 280 rows span two TSQR leaves, so panel_tsqr launches.
    return random_symmetric(288, np.random.default_rng(5))


def _sbr(method, a, site, ctx, precision="fp32"):
    eng = make_engine(precision, record=True)
    if method == "wy":
        return sbr_wy(a, 8, 32, engine=eng, resilience=ctx), eng
    return sbr_zy(a, 8, engine=eng, resilience=ctx,
                  use_syr2k=site == "zy_syr2k"), eng


def _first_unit(method, trace, site):
    """(phase, panel) of the unit running the first launch tagged ``site``.

    Every panel launches exactly one ``panel_reconstruct``; its TSQR
    launches come before it, everything else after it.  WY forms Q in
    its own unit after the panels.
    """
    if method == "wy" and site == "form_q":
        return "sbr.form_q", None
    seen = 0
    for rec in trace:
        if rec.tag == site:
            before = site in ("panel_tsqr", "panel_reconstruct")
            return "sbr.panel", seen if before else seen - 1
        seen += rec.tag == "panel_reconstruct"
    raise AssertionError(f"{site} never launched")


class TestPerUnitDetection:
    """Output detectors scan each retry unit once, not every launch.

    That is safe only if a fault in any launch is caught before its unit
    returns: a one-shot NaN or overflow at any stage-1 GEMM site must be
    detected, and retried, in the unit that launched it.
    """

    @pytest.mark.parametrize("method,site", UNIT_SITES,
                             ids=[f"{m}-{s}" for m, s in UNIT_SITES])
    @pytest.mark.parametrize("kind", ["nan", "overflow"])
    def test_fault_is_caught_in_its_own_unit(self, sym288, method, site, kind):
        _, clean = _sbr(method, sym288, site, None)
        phase, panel = _first_unit(method, clean.trace, site)

        ctx = ResilienceContext(injector=FaultInjector(FaultSpec(site=site, kind=kind)))
        res, _ = _sbr(method, sym288, site, ctx)
        rep = ctx.report
        assert len(rep.faults_injected) == 1
        assert [(e.phase, e.panel) for e in rep.escalations] == [(phase, panel)]
        assert all((d.phase, d.panel) == (phase, panel) for d in rep.detections)
        lam = np.linalg.eigvalsh(res.band.astype(np.float64))
        ref = np.linalg.eigvalsh(sym288)
        assert np.abs(lam - ref).max() < 5e3 * Precision.FP32.machine_eps * 288

        ctx = ResilienceContext(
            on_breakdown="raise",
            injector=FaultInjector(FaultSpec(site=site, kind=kind)),
        )
        with pytest.raises((NumericalBreakdownError, SingularMatrixError)) as ei:
            _sbr(method, sym288, site, ctx)
        exc = ei.value
        assert exc.panel == panel
        if isinstance(exc, NumericalBreakdownError):
            assert exc.phase == phase
        else:  # a NaN pivot, raised by the panel's reconstruction
            assert exc.phase == phase == "sbr.panel" and f"panel {panel}" in str(exc)

    def test_growth_is_caught_on_a_tiny_matrix(self, sym96):
        # The growth bound scales with max|A| however small it is: an
        # overflow by 1e8 on a 1e-150-scaled matrix is still growth.
        a = sym96 * 1e-150
        _, clean = _sbr("wy", a, "wy_right", None, precision="fp64")
        unit = _first_unit("wy", clean.trace, "wy_right")
        ctx = ResilienceContext(injector=FaultInjector(
            FaultSpec(site="wy_right", kind="overflow", scale=1e8)))
        res, _ = _sbr("wy", a, "wy_right", ctx, precision="fp64")
        rep = ctx.report
        assert [(d.detector, d.phase, d.panel) for d in rep.detections] == [
            ("norm_growth", *unit)]
        assert rep.retries == 1
        lam = np.linalg.eigvalsh(res.band * 1e150)
        ref = np.linalg.eigvalsh(sym96)
        assert np.abs(lam - ref).max() < 5e3 * Precision.FP64.machine_eps * 96


# ---------------------------------------------------------------------------
# raise / best_effort modes
# ---------------------------------------------------------------------------


class TestDegradationModes:
    @pytest.mark.parametrize("site,phase", [
        ("panel_*", "sbr.panel"),
        ("wy_right", "sbr.panel"),
        ("bulge", "bulge"),
    ])
    def test_raise_mode_names_phase(self, sym96, site, phase):
        inj = FaultInjector(FaultSpec(site=site, kind="nan", call_index=0))
        with pytest.raises(NumericalBreakdownError) as ei:
            syevd_2stage(sym96, b=8, nb=32, precision="fp32",
                         faults=inj, on_breakdown="raise")
        assert ei.value.phase == phase
        assert phase in str(ei.value)

    def test_escalate_exhausts_budget_then_raises(self, sym96):
        inj = FaultInjector(
            FaultSpec(site="panel_*", kind="nan", call_index=0, count=10**6)
        )
        with pytest.raises((NumericalBreakdownError, SingularMatrixError)):
            syevd_2stage(sym96, b=8, nb=32, precision="fp32", faults=inj,
                         ladder=EscalationLadder(max_retries=2))

    def test_best_effort_completes_on_persistent_overflow(self, sym96):
        inj = FaultInjector(
            FaultSpec(site="wy_right", kind="overflow", call_index=0, count=10**6)
        )
        res = syevd_2stage(sym96, b=8, nb=32, precision="fp32", faults=inj,
                           on_breakdown="best_effort",
                           ladder=EscalationLadder(max_retries=1))
        rep = res.resilience_report
        assert rep.best_effort
        assert np.isfinite(res.eigenvalues).all()

    def test_best_effort_propagates_structural_failure(self, sym96):
        # A persistent NaN corrupts even the detector-suppressed final
        # pass; the structural guards must end the run, not loop forever.
        inj = FaultInjector(
            FaultSpec(site="panel_*", kind="nan", call_index=0, count=10**6)
        )
        with pytest.raises(ReproError):
            syevd_2stage(sym96, b=8, nb=32, precision="fp32", faults=inj,
                         on_breakdown="best_effort",
                         ladder=EscalationLadder(max_retries=1))

    def test_faults_without_resilience_layer_rejected(self, sym96):
        inj = FaultInjector(FaultSpec(site="bulge", kind="nan"))
        with pytest.raises(ReproError, match="resilience"):
            syevd_2stage(sym96, b=8, nb=32, faults=inj, on_breakdown=None)


# ---------------------------------------------------------------------------
# Obs manifest visibility
# ---------------------------------------------------------------------------


class TestManifestVisibility:
    def test_report_and_spans_land_in_manifest(self, tmp_path):
        from repro.obs.manifest import load_manifest
        from repro.obs.record import record_syevd

        inj = FaultInjector(FaultSpec(site="wy_right", kind="nan", call_index=0))
        run = record_syevd(
            n=64, b=8, nb=32, precision="fp32", seed=5, probes=False,
            faults=inj, path=str(tmp_path / "faulted.jsonl"),
        )
        man = load_manifest(run.path)
        assert man.resilience is not None
        assert man.resilience["detections"]
        assert man.resilience["escalations"]
        assert man.resilience["faults_injected"]
        names = {s.name for s in man.spans}
        assert "resilience.detect" in names
        assert "resilience.escalate" in names
        assert "resilience.fault" in names

    def test_clean_manifest_reports_clean(self, tmp_path):
        from repro.obs.manifest import load_manifest
        from repro.obs.record import record_syevd

        run = record_syevd(
            n=64, b=8, nb=32, precision="fp32", seed=5, probes=False,
            path=str(tmp_path / "clean.jsonl"),
        )
        man = load_manifest(run.path)
        assert man.resilience is not None
        assert man.resilience["detections"] == []
        assert man.resilience["retries"] == 0


# ---------------------------------------------------------------------------
# Input validation satellites
# ---------------------------------------------------------------------------


class TestInputValidation:
    def make_bad(self, rng, value=np.nan):
        a = random_symmetric(32, rng)
        a[3, 4] = a[4, 3] = value
        return a

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_syevd_2stage_rejects_nonfinite(self, rng, value):
        with pytest.raises(ShapeError, match="non-finite"):
            syevd_2stage(self.make_bad(rng, value), b=4, nb=16)

    def test_syevd_1stage_rejects_nonfinite(self, rng):
        with pytest.raises(ShapeError, match="non-finite"):
            syevd_1stage(self.make_bad(rng))

    def test_syevd_selected_rejects_nonfinite(self, rng):
        with pytest.raises(ShapeError, match="non-finite"):
            syevd_selected(self.make_bad(rng), select=(0, 2), b=4, nb=16)

    def test_sbr_wy_rejects_nonfinite(self, rng):
        with pytest.raises(ShapeError, match=r"nan at \[3, 4\]"):
            sbr_wy(self.make_bad(rng), 4, 16)

    def test_sbr_zy_rejects_nonfinite(self, rng):
        with pytest.raises(ShapeError, match="non-finite"):
            sbr_zy(self.make_bad(rng), 4)

    def test_gate_skippable(self, rng):
        # check_input=False hands the NaN to the solver: no layer checks
        # again, so the TSQR panel's detector is the first to see it.
        with pytest.raises(NumericalBreakdownError) as ei:
            syevd_2stage(self.make_bad(rng), b=4, nb=16,
                         check_input=False, on_breakdown="raise")
        assert ei.value.detector == "nonfinite"
        assert ei.value.site == "tsqr"

    def nan_in_first_panel(self, rng):
        a = random_symmetric(96, rng)
        a[10, 0] = a[0, 10] = np.nan
        return a

    @pytest.mark.parametrize("mode", ["escalate", "raise"])
    def test_unchecked_nan_names_its_unit(self, rng, mode):
        # TSQR's own finiteness check raises outside the detectors; the
        # retry unit it escapes from gives it the unit's phase and panel.
        with pytest.raises(NumericalBreakdownError) as ei:
            syevd_2stage(self.nan_in_first_panel(rng), b=8, nb=32,
                         check_input=False, on_breakdown=mode)
        assert (ei.value.detector, ei.value.site) == ("nonfinite", "tsqr")
        assert (ei.value.phase, ei.value.panel) == ("sbr.panel", 0)
        assert "phase=sbr.panel" in str(ei.value)

    def test_unchecked_nan_is_recorded(self, rng):
        ctx = ResilienceContext()
        with pytest.raises(NumericalBreakdownError):
            sbr_wy(Validated(self.nan_in_first_panel(rng)), 8, 32,
                   resilience=ctx)
        dets = ctx.report.detections
        assert dets
        assert {(d.detector, d.site, d.phase, d.panel) for d in dets} == {
            ("nonfinite", "tsqr", "sbr.panel", 0)}
        # One record per failed attempt: the first, then each retry.
        assert len(dets) == ctx.report.retries + 1

    def test_nonfinite_input_is_not_retried(self, rng):
        # No precision heals a NaN in a unit's input: the first
        # detection raises, at the base precision, with no retry.
        ctx = ResilienceContext()
        with pytest.raises(NumericalBreakdownError) as ei:
            sbr_wy(Validated(self.nan_in_first_panel(rng)), 8, 32,
                   resilience=ctx)
        assert ctx.report.retries == 0 and not ctx.report.escalations
        assert ei.value.site == "tsqr"

    def test_unchecked_nonfinite_input_raises_at_once(self, rng):
        # A NaN outside panel 0's columns is caught by the step's output
        # scan, which names the engine that ran: the base one, not the
        # fp64 top of the ladder a retry would have reached.
        a = random_symmetric(96, rng)
        a[40, 40] = np.nan
        with pytest.raises(NumericalBreakdownError) as ei:
            syevd_2stage(a, b=8, nb=32, check_input=False)
        assert (ei.value.phase, ei.value.panel) == ("sbr.panel", 0)
        assert (ei.value.site, ei.value.precision) == ("wy_step", "fp32")

    def test_error_message_counts_and_locates(self, rng):
        a = random_symmetric(16, rng)
        a[0, 1] = np.nan
        a[5, 6] = np.inf
        with pytest.raises(ShapeError, match="2 non-finite"):
            syevd_2stage(a, b=4, nb=8)


# ---------------------------------------------------------------------------
# Structured errors (satellites)
# ---------------------------------------------------------------------------


class TestStructuredErrors:
    def test_convergence_error_renders_state(self):
        exc = ConvergenceError("did not converge", iterations=30,
                              residual=1.25e-3, phase="tridiag_solve")
        text = str(exc)
        assert "iterations=30" in text
        assert "residual=1.250e-03" in text
        assert "phase=tridiag_solve" in text

    def test_convergence_error_backward_compatible(self):
        exc = ConvergenceError("plain message")
        assert str(exc) == "plain message"
        assert exc.iterations is None and exc.phase is None

    def test_ql_failure_carries_iterations(self):
        from repro.eig.qliter import tridiag_eig_ql

        # A pathological tridiagonal QL cannot settle: NaN off-diagonal is
        # caught by validation, so force failure via the iteration cap by
        # monkeypatching is avoided — instead just check the structured
        # fields survive a driver re-raise.
        exc = ConvergenceError("x", iterations=3, residual=0.5)
        try:
            try:
                raise exc
            except ConvergenceError as inner:
                if inner.phase is None:
                    inner.phase = "tridiag_solve"
                raise
        except ConvergenceError as outer:
            assert outer is exc
            assert outer.phase == "tridiag_solve"

    def test_breakdown_error_to_dict(self):
        exc = NumericalBreakdownError(
            "boom", phase="sbr.panel", panel=2, detector="nonfinite",
            site="wy_right", precision="fp16_tc",
        )
        d = exc.to_dict()
        assert d["phase"] == "sbr.panel"
        assert d["panel"] == 2
        assert d["detector"] == "nonfinite"


# ---------------------------------------------------------------------------
# Degenerate-pivot regression (reconstruct_wy satellite)
# ---------------------------------------------------------------------------


class TestReconstructDegeneracy:
    def test_nonfinite_q_raises_with_pivot_location(self, rng):
        from repro.la.reconstruct import reconstruct_wy
        from repro.la.tsqr import tsqr

        q, _ = tsqr(rng.standard_normal((32, 6)))
        q = np.array(q)
        q[:, 3] = np.nan  # corrupted panel column -> NaN pivot at j=3
        with pytest.raises(SingularMatrixError) as ei:
            reconstruct_wy(q)
        assert ei.value.column == 3
        assert "column 3" in str(ei.value)

    def test_sbr_attaches_panel_index(self, rng):
        # Through the full band reduction, the panel index is attached to
        # the reconstruction failure (raise mode: no retry masking it).
        a = random_symmetric(48, rng)
        inj = FaultInjector(
            FaultSpec(site="panel_reconstruct", kind="nan", call_index=2, count=10**6)
        )
        with pytest.raises((SingularMatrixError, NumericalBreakdownError)) as ei:
            syevd_2stage(a, b=4, nb=16, precision="fp32", faults=inj,
                         on_breakdown="raise")
        assert ei.value.panel is not None

    def test_healthy_reconstruction_unaffected(self, rng):
        from repro.la.reconstruct import reconstruct_wy
        from repro.la.tsqr import tsqr

        x = rng.standard_normal((24, 5))
        q, r = tsqr(x)
        w, y, s = reconstruct_wy(q)
        qs = np.eye(24)[:, :5] - w @ y[:5, :].T
        np.testing.assert_allclose(qs, np.asarray(q) * s, atol=1e-12)
