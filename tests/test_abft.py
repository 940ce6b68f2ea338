"""Tests for the online ABFT layer (``repro.resilience.abft``).

Covers the full detect → locate → correct → recompute → escalate ladder
at three levels: the checker in isolation (checksum math, localization,
Freivalds probe, syr2k fusion), the driver integration (``abft=`` knob,
bitwise-identical correction of injected bit flips, ``SdcError``
propagation, zero-overhead off), and the serving layer (SDC retries as a
distinct taxonomy class).  Plus the satellites: the promoted checkpoint
checksum helpers, the ``verify_abft`` tolerance floor, ``backoff()``
jitter determinism, and the manifest/report/CLI surfaces.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_symmetric
from repro.errors import (
    CheckpointCorruptionError,
    ConfigurationError,
    NumericalBreakdownError,
    SdcError,
)
from repro.gemm.engine import make_engine
from repro.precision.modes import Precision
from repro.resilience import FaultInjector, FaultSpec, backoff
from repro.resilience.abft import (
    ABFT_MODES,
    AbftChecker,
    AbftPolicy,
    AbftReport,
    Syr2kPre,
    abft_signature,
    checksum_crc,
    sum_vectors,
    verify_abft,
)
from repro.resilience.context import ResilienceContext
from repro.resilience.detectors import DetectorConfig
from repro.resilience.faults import FAULT_KINDS, _TOP_EXPONENT_BIT
from repro.eig.driver import syevd_2stage


def _gemm_triplet(rng, m=12, k=8, n=10, dtype=np.float32):
    a = rng.standard_normal((m, k)).astype(dtype)
    b = rng.standard_normal((k, n)).astype(dtype)
    return a, b, (a @ b).astype(dtype)


# ---------------------------------------------------------------------------
# checksum helpers shared by the launch guard and checkpoints
# ---------------------------------------------------------------------------
class TestPromotedHelpers:
    def test_top_level_exports(self):
        import repro
        import repro.resilience as res

        assert repro.SdcError is SdcError
        assert repro.AbftPolicy is AbftPolicy
        assert repro.AbftReport is AbftReport
        for name in ("ABFT_MODES", "AbftChecker", "AbftPolicy", "AbftReport",
                     "Syr2kPre", "abft_signature", "verify_abft",
                     "sum_vectors", "checksum_crc"):
            assert name in res.__all__

    def test_sum_vectors_math(self):
        arr = np.arange(6.0, dtype=np.float32).reshape(2, 3)
        rows, cols = sum_vectors(arr)
        assert rows.dtype == np.float64 and cols.dtype == np.float64
        np.testing.assert_array_equal(rows, [3.0, 12.0])
        np.testing.assert_array_equal(cols, [3.0, 5.0, 7.0])

    def test_checksum_crc_changes_with_content(self):
        vec = np.arange(8.0)
        c = checksum_crc(vec)
        assert c == checksum_crc(vec.copy())
        vec2 = vec.copy()
        vec2[3] += 1.0
        assert checksum_crc(vec2) != c

    def test_signature_roundtrip(self, rng):
        arr = rng.standard_normal((9, 7)).astype(np.float32)
        verify_abft("x", arr, abft_signature(arr))  # no raise


# ---------------------------------------------------------------------------
# satellite 2: verify_abft tolerance floored at the storage dtype's eps
# ---------------------------------------------------------------------------
class TestVerifyAbftTolerance:
    def test_fp16_total_within_effective_eps_passes(self, rng):
        # An ill-scaled FP16 payload: the float64 re-reduction of the
        # grand total may legally differ across summation orders by
        # ~eps16·‖A‖₁.  A perturbation inside that window must pass.
        arr = (rng.standard_normal((32, 32)) * 1e3).astype(np.float16)
        sig = abft_signature(arr)
        tol = float(np.finfo(np.float16).eps) * float(
            np.abs(arr.astype(np.float64)).sum())
        ref = float.fromhex(sig["total"])
        near = dict(sig, total=float(ref + 0.25 * tol).hex())
        verify_abft("x", arr, near)  # within the floor: no raise

    def test_total_beyond_tolerance_raises(self, rng):
        arr = (rng.standard_normal((32, 32)) * 1e3).astype(np.float16)
        sig = abft_signature(arr)
        tol = float(np.finfo(np.float16).eps) * float(
            np.abs(arr.astype(np.float64)).sum())
        far = dict(sig, total=float(float.fromhex(sig["total"]) + 10 * tol).hex())
        with pytest.raises(CheckpointCorruptionError) as ei:
            verify_abft("x", arr, far)
        assert ei.value.field == "abft:x.total"

    def test_crc_checks_stay_exact(self, rng):
        # The tolerance applies ONLY to the grand total; any bit change
        # in the payload still trips the exact row CRC.
        arr = (rng.standard_normal((16, 16)) * 1e3).astype(np.float16)
        sig = abft_signature(arr)
        bad = arr.copy()
        bad.view(np.uint16)[3, 4] ^= 1  # one LSB mantissa bit
        with pytest.raises(CheckpointCorruptionError) as ei:
            verify_abft("x", bad, sig)
        assert ei.value.field in ("abft:x.row", "abft:x.col")

    def test_shape_and_dtype_mismatch_fields(self, rng):
        arr = rng.standard_normal((4, 4)).astype(np.float32)
        sig = abft_signature(arr)
        with pytest.raises(CheckpointCorruptionError) as ei:
            verify_abft("x", arr[:3], sig)
        assert ei.value.field == "abft:x.shape"
        with pytest.raises(CheckpointCorruptionError) as ei:
            verify_abft("x", arr.astype(np.float64), sig)
        assert ei.value.field == "abft:x.dtype"


# ---------------------------------------------------------------------------
# the bitflip fault kind
# ---------------------------------------------------------------------------
class TestBitflipFault:
    def test_registered_kind(self):
        assert "bitflip" in FAULT_KINDS

    def _flip(self, seed=5, **kw):
        inj = FaultInjector(FaultSpec(site="t", kind="bitflip", seed=seed, **kw))
        arr = np.random.default_rng(0).standard_normal((8, 8)).astype(np.float32)
        out = inj.apply("t", arr.copy())
        return arr, out, inj

    def test_flips_exactly_one_bit_of_one_element(self):
        arr, out, inj = self._flip()
        diff = np.argwhere(arr != out)
        assert len(diff) == 1
        r, c = diff[0]
        xor = int(arr.view(np.uint32)[r, c] ^ out.view(np.uint32)[r, c])
        assert bin(xor).count("1") == 1
        # Default bit is the dtype's top exponent bit.
        assert xor == 1 << _TOP_EXPONENT_BIT[4]
        assert len(inj.fired) == 1 and inj.fired[0].kind == "bitflip"

    def test_deterministic_under_seed(self):
        _, out1, _ = self._flip(seed=9)
        _, out2, _ = self._flip(seed=9)
        np.testing.assert_array_equal(out1, out2)
        _, out3, _ = self._flip(seed=10)
        assert not np.array_equal(out1, out3)

    def test_explicit_bit_zero_flips_mantissa_lsb(self):
        arr, out, _ = self._flip(bit=0)
        r, c = np.argwhere(arr != out)[0]
        assert int(arr.view(np.uint32)[r, c] ^ out.view(np.uint32)[r, c]) == 1

    def test_negative_bit_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(site="t", kind="bitflip", bit=-1)

    def test_transient_by_default(self):
        inj = FaultInjector(FaultSpec(site="t", kind="bitflip", seed=1))
        arr = np.ones((4, 4), dtype=np.float32)
        first = inj.apply("t", arr.copy())
        second = inj.apply("t", arr.copy())
        assert not np.array_equal(first, arr)
        np.testing.assert_array_equal(second, arr)  # count=1 exhausted


# ---------------------------------------------------------------------------
# the checker in isolation
# ---------------------------------------------------------------------------
class TestAbftCheckerUnit:
    def test_clean_gemm_verifies_without_false_positive(self, rng):
        for dtype, prec in ((np.float32, Precision.FP32),
                            (np.float64, Precision.FP64)):
            a, b, out = _gemm_triplet(rng, 48, 64, 40, dtype)
            ck = AbftChecker(AbftPolicy(mode="detect"))
            res = ck.guard_gemm(out, a, b, precision=prec, site="t")
            assert res is out
            assert ck.report.verified == 1 and ck.report.clean

    def test_detect_localizes_single_element(self, rng):
        a, b, out = _gemm_triplet(rng)
        bad = out.copy()
        bad[3, 5] += 100.0
        ck = AbftChecker(AbftPolicy(mode="detect"))
        with pytest.raises(SdcError) as ei:
            ck.guard_gemm(bad, a, b, precision=Precision.FP32, site="wy_right")
        exc = ei.value
        assert (exc.row, exc.col) == (3, 5)
        assert exc.site == "wy_right" and exc.call_index == 0
        assert exc.op == "gemm" and exc.detector == "abft"
        assert ck.report.detected == 1 and ck.report.raised == 1

    def test_correct_patches_single_element_bitwise(self, rng):
        a, b, out = _gemm_triplet(rng)
        bad = out.copy()
        bad[2, 7] += 50.0
        calls = []

        def recompute():
            calls.append(1)
            return out.copy()

        ck = AbftChecker(AbftPolicy(mode="correct"))
        res = ck.guard_gemm(bad, a, b, precision=Precision.FP32, site="t",
                            recompute=recompute)
        assert res is bad
        np.testing.assert_array_equal(bad, out)  # bitwise restored
        assert ck.report.corrected == 1 and ck.report.detected == 1
        assert ck.report.raised == 0
        assert len(calls) == 1  # the replay sourced the patched value
        ev = ck.report.events[0]
        assert ev.action == "corrected" and (ev.row, ev.col) == (2, 7)

    def test_multi_element_damage_recomputes(self, rng):
        a, b, out = _gemm_triplet(rng)
        bad = out.copy()
        bad[1, 2] += 40.0
        bad[4, 6] -= 40.0  # two rows × two cols: not localizable
        ck = AbftChecker(AbftPolicy(mode="correct"))
        res = ck.guard_gemm(bad, a, b, precision=Precision.FP32, site="t",
                            recompute=lambda: out.copy())
        np.testing.assert_array_equal(res, out)
        assert ck.report.recomputed == 1 and ck.report.corrected == 0

    def test_persistent_damage_escalates_after_max_recomputes(self, rng):
        a, b, out = _gemm_triplet(rng)
        bad = out.copy()
        bad[0, 0] += 30.0
        calls = []

        def still_bad():
            calls.append(1)
            return bad.copy()  # the fault survives every replay

        policy = AbftPolicy(mode="correct", max_recomputes=2)
        ck = AbftChecker(policy)
        with pytest.raises(SdcError) as ei:
            ck.guard_gemm(bad, a, b, precision=Precision.FP32, site="t",
                          recompute=still_bad)
        assert "persistent" in str(ei.value)
        assert ck.report.raised == 1
        assert len(calls) >= policy.max_recomputes
        assert isinstance(ei.value, NumericalBreakdownError)  # ladder-compatible

    def test_detect_mode_never_calls_recompute(self, rng):
        a, b, out = _gemm_triplet(rng)
        bad = out.copy()
        bad[0, 1] += 10.0
        ck = AbftChecker(AbftPolicy(mode="detect"))
        with pytest.raises(SdcError):
            ck.guard_gemm(bad, a, b, precision=Precision.FP32, site="t",
                          recompute=lambda: pytest.fail("detect mode replayed"))

    def test_guard_copy_exact_and_nan_safe(self, rng):
        ck = AbftChecker(AbftPolicy(mode="detect"))
        arr = rng.standard_normal((6, 6)).astype(np.float32)
        arr[2, 2] = np.nan
        assert ck.guard_copy(arr.copy(), arr, site="bulge") is not None
        bad = arr.copy()
        bad[1, 3] += 1.0
        with pytest.raises(SdcError) as ei:
            ck.guard_copy(bad, arr, site="bulge")
        assert ei.value.op == "copy" and ei.value.site == "bulge"

    def test_guard_copy_correct_mode_patches_from_ref(self, rng):
        ck = AbftChecker(AbftPolicy(mode="correct"))
        ref = rng.standard_normal((6, 6)).astype(np.float32)
        bad = ref.copy()
        bad[4, 1] -= 3.0
        res = ck.guard_copy(bad, ref, site="bulge")
        np.testing.assert_array_equal(res, ref)
        assert ck.report.corrected + ck.report.recomputed >= 1

    def test_syr2k_fused_update_with_pre_checksums(self, rng):
        y = rng.standard_normal((10, 3)).astype(np.float64)
        z = rng.standard_normal((10, 3)).astype(np.float64)
        c = rng.standard_normal((10, 10))
        c = (c + c.T).astype(np.float64)
        alpha, beta = 1.0, 0.5
        pre = Syr2kPre.capture(c)
        clean = beta * c + alpha * (y @ z.T + z @ y.T)
        ck = AbftChecker(AbftPolicy(mode="detect"))
        ck.guard_syr2k(clean.copy(), y, z, precision=Precision.FP64,
                       site="s", alpha=alpha, beta=beta, pre=pre)
        assert ck.report.verified == 1 and ck.report.clean
        bad = clean.copy()
        bad[2, 5] += 10.0
        ck2 = AbftChecker(AbftPolicy(mode="correct"))
        res = ck2.guard_syr2k(bad, y, z, precision=Precision.FP64,
                              site="s", alpha=alpha, beta=beta, pre=pre,
                              recompute=lambda: clean.copy())
        np.testing.assert_array_equal(res, clean)
        assert ck2.report.detected == 1

    def test_call_index_counts_per_site(self, rng):
        a, b, out = _gemm_triplet(rng)
        ck = AbftChecker(AbftPolicy(mode="detect"))
        ck.guard_gemm(out.copy(), a, b, precision=Precision.FP32, site="t")
        bad = out.copy()
        bad[0, 0] += 5.0
        with pytest.raises(SdcError) as ei:
            ck.guard_gemm(bad, a, b, precision=Precision.FP32, site="t")
        assert ei.value.call_index == 1  # second launch at this site


# ---------------------------------------------------------------------------
# Freivalds probe for batched launches
# ---------------------------------------------------------------------------
class TestFreivaldsProbe:
    def _stack(self, rng, batch=4, dtype=np.float32):
        a = rng.standard_normal((batch, 8, 6)).astype(dtype)
        b = rng.standard_normal((batch, 6, 7)).astype(dtype)
        return a, b, np.matmul(a, b).astype(dtype)

    def test_large_stack_uses_probe(self, rng):
        a, b, out = self._stack(rng, batch=4)
        ck = AbftChecker(AbftPolicy(mode="detect", freivalds_batch=4))
        ck.guard_batched(out, a, b, precision=Precision.FP32, site="bt")
        assert ck.report.probed == 1 and ck.report.verified == 0

    def test_small_stack_uses_full_checksums(self, rng):
        a, b, out = self._stack(rng, batch=2)
        ck = AbftChecker(AbftPolicy(mode="detect", freivalds_batch=4))
        ck.guard_batched(out, a, b, precision=Precision.FP32, site="bt")
        assert ck.report.verified == 1 and ck.report.probed == 0

    def test_probe_hit_localizes_and_raises_in_detect(self, rng):
        a, b, out = self._stack(rng, batch=4)
        bad = out.copy()
        bad[2, 3, 4] += 1e4
        ck = AbftChecker(AbftPolicy(mode="detect", freivalds_batch=4))
        with pytest.raises(SdcError) as ei:
            ck.guard_batched(bad, a, b, precision=Precision.FP32, site="bt")
        assert ei.value.op == "gemm_batched" and ei.value.site == "bt"
        assert ck.report.detected == 1

    def test_probe_hit_corrects_in_correct_mode(self, rng):
        a, b, out = self._stack(rng, batch=4)
        bad = out.copy()
        bad[1, 0, 2] -= 1e4
        ck = AbftChecker(AbftPolicy(mode="correct", freivalds_batch=4))
        res = ck.guard_batched(bad, a, b, precision=Precision.FP32, site="bt",
                               recompute=lambda: out.copy())
        np.testing.assert_array_equal(res, out)
        assert ck.report.corrected + ck.report.recomputed >= 1

    def test_probe_disabled_with_zero_threshold(self, rng):
        a, b, out = self._stack(rng, batch=6)
        ck = AbftChecker(AbftPolicy(mode="detect", freivalds_batch=0))
        ck.guard_batched(out, a, b, precision=Precision.FP32, site="bt")
        assert ck.report.verified == 1 and ck.report.probed == 0


# ---------------------------------------------------------------------------
# policy knob
# ---------------------------------------------------------------------------
class TestAbftPolicy:
    def test_modes_tuple(self):
        assert ABFT_MODES == ("off", "detect", "correct")

    def test_from_knob(self):
        assert AbftPolicy.from_knob(None) is None
        assert AbftPolicy.from_knob("off") is None
        assert AbftPolicy.from_knob(False) is None
        assert AbftPolicy.from_knob("detect").mode == "detect"
        assert AbftPolicy.from_knob("correct").mode == "correct"
        pol = AbftPolicy(mode="correct", freivalds_batch=0)
        assert AbftPolicy.from_knob(pol) is pol

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            AbftPolicy.from_knob("fix-it")
        with pytest.raises(ConfigurationError):
            AbftPolicy.from_knob(3)
        with pytest.raises(ConfigurationError):
            AbftPolicy(mode="off")  # "off" means: no checker at all
        with pytest.raises(ConfigurationError):
            AbftPolicy(mode="detect", eps_factor=0.0)

    def test_report_roundtrip(self):
        rep = AbftReport(mode="correct", verified=5, probed=2, detected=1,
                         corrected=1, verify_seconds=0.25,
                         by_phase={"sbr.panel": {"verified": 5, "detected": 1,
                                                 "seconds": 0.25}})
        back = AbftReport.from_dict(json.loads(json.dumps(rep.to_dict())))
        assert back.to_dict() == rep.to_dict()
        assert "abft[correct]" in rep.summary()
        assert "1 SDC detected" in rep.summary()


# ---------------------------------------------------------------------------
# driver integration: the tentpole acceptance criteria
# ---------------------------------------------------------------------------
# (site, call_index) pairs covering distinct compute phases: the SBR
# trailing update, the big-block full update, the driver-level band copy
# into stage 2, and the final back-transform.
# ``wy_full_right`` fires once per run at n=64/b=8, so its index is 0.
SITES = (
    ("wy_right", 1),
    ("wy_full_right", 0),
    ("bulge", 0),
    ("back_transform", 1),
)
#: The checker routine each site's launch goes through (SdcError.op).
SITE_OPS = {
    "wy_right": "gemm",
    "wy_full_right": "gemm",
    "bulge": "copy",
    "back_transform": "gemm",
}


class TestDriverIntegration:
    def _matrix(self, n=64, seed=3):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        return (a + a.T) / 2

    def test_clean_detect_run_attaches_report(self):
        a = self._matrix()
        res = syevd_2stage(a, b=8, precision="fp32", abft="detect",
                           check_input=False)
        rep = res.abft_report
        assert rep is not None and rep.mode == "detect"
        assert rep.clean and rep.verified > 0
        assert set(rep.by_phase) >= {"sbr.panel", "back_transform"}
        np.testing.assert_allclose(res.eigenvalues, np.linalg.eigvalsh(a),
                                   atol=1e-4)

    def test_off_keeps_report_none(self):
        res = syevd_2stage(self._matrix(), b=8, precision="fp32",
                           check_input=False)
        assert res.abft_report is None

    @pytest.mark.parametrize("site,call_index", SITES)
    def test_correct_mode_is_bitwise_identical_under_bitflip(self, site,
                                                             call_index):
        # The headline guarantee: a single-bit flip at any guarded site
        # is corrected in flight and the final EVD is bitwise-identical
        # to the uninjected run.
        a = self._matrix()
        clean = syevd_2stage(a, b=8, precision="fp32", check_input=False)
        inj = FaultInjector(FaultSpec(site=site, kind="bitflip",
                                      call_index=call_index, seed=11))
        res = syevd_2stage(a, b=8, precision="fp32", abft="correct",
                           faults=inj, check_input=False)
        assert inj.fired, f"fault at {site!r} never fired"
        rep = res.abft_report
        assert rep.detected >= 1
        assert rep.corrected + rep.recomputed >= 1
        np.testing.assert_array_equal(res.eigenvalues, clean.eigenvalues)
        np.testing.assert_array_equal(res.eigenvectors, clean.eigenvectors)

    @pytest.mark.parametrize("site,call_index", SITES)
    def test_detect_mode_raises_sdc_error_with_context(self, site, call_index):
        a = self._matrix()
        inj = FaultInjector(FaultSpec(site=site, kind="bitflip",
                                      call_index=call_index, seed=11))
        with pytest.raises(SdcError) as ei:
            syevd_2stage(a, b=8, precision="fp32", abft="detect",
                         faults=inj, on_breakdown="raise", check_input=False)
        exc = ei.value
        assert exc.site == site
        assert exc.op == SITE_OPS[site]
        assert exc.call_index is not None
        assert exc.phase is not None
        assert exc.detector == "abft"

    def test_detect_mode_feeds_escalation_ladder(self):
        # Default on_breakdown="escalate": the SdcError is retried like
        # any numerical breakdown and the run still completes.
        a = self._matrix()
        inj = FaultInjector(FaultSpec(site="wy_right", kind="bitflip",
                                      call_index=1, seed=11))
        res = syevd_2stage(a, b=8, precision="fp32", abft="detect",
                           faults=inj, check_input=False)
        assert res.abft_report.raised >= 1
        assert res.resilience_report is not None
        np.testing.assert_allclose(res.eigenvalues, np.linalg.eigvalsh(a),
                                   atol=1e-4)

    def test_abft_requires_resilience_layer(self):
        with pytest.raises(ConfigurationError):
            syevd_2stage(self._matrix(), b=8, precision="fp32",
                         abft="detect", on_breakdown=None, check_input=False)

    def test_policy_object_passthrough(self):
        pol = AbftPolicy(mode="detect", freivalds_batch=0)
        res = syevd_2stage(self._matrix(), b=8, precision="fp32", abft=pol,
                           check_input=False)
        assert res.abft_report is not None and res.abft_report.probed == 0

    def test_clean_runs_stay_clean_across_precisions(self):
        # Tolerance calibration: no false positives at reduced precision.
        a = self._matrix(n=48, seed=7)
        for prec in ("fp64", "fp32", "fp16_ec_tc"):
            res = syevd_2stage(a, b=8, precision=prec, abft="detect",
                               check_input=False)
            assert res.abft_report.clean, f"false positive at {prec}"


# ---------------------------------------------------------------------------
# zero-overhead off (tracemalloc-asserted)
# ---------------------------------------------------------------------------
class TestZeroOverheadOff:
    def test_abft_off_hot_path_retains_no_allocations(self, rng):
        # With abft off the wrapper adds one attribute read and a None
        # check per launch.  Detectors are disabled so the measurement
        # isolates the dispatch itself (their allocations are covered by
        # their own tests).
        cfg = DetectorConfig(nonfinite=False, magnitude=False,
                             orthogonality=False, norm_growth=False,
                             symmetry=False, residual=False)
        ctx = ResilienceContext(on_breakdown="escalate", detectors=cfg)
        assert ctx.abft is None
        eng = ctx.wrap_engine(make_engine("fp32"))
        a = rng.standard_normal((32, 32)).astype(np.float32)
        b = rng.standard_normal((32, 32)).astype(np.float32)
        out = np.empty((32, 32), dtype=np.float32)
        for _ in range(50):
            eng.gemm(a, b, tag="t", out=out)
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(200):
            eng.gemm(a, b, tag="t", out=out)
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert after - before == 0

    def test_abft_on_actually_verifies_the_same_path(self, rng):
        cfg = DetectorConfig(nonfinite=False, magnitude=False,
                             orthogonality=False, norm_growth=False,
                             symmetry=False, residual=False)
        ctx = ResilienceContext(on_breakdown="escalate", detectors=cfg,
                                abft="detect")
        eng = ctx.wrap_engine(make_engine("fp32"))
        a = rng.standard_normal((16, 16)).astype(np.float32)
        b = rng.standard_normal((16, 16)).astype(np.float32)
        for _ in range(3):
            eng.gemm(a, b, tag="t")
        assert ctx.abft.report.verified == 3


# ---------------------------------------------------------------------------
# satellite 3a: backoff jitter determinism
# ---------------------------------------------------------------------------
class TestBackoffJitterDeterminism:
    def test_identical_sequences_under_fixed_rng(self):
        seq1 = [backoff(k, base=0.05, jitter=0.5,
                        rng=np.random.default_rng(42)) for k in range(6)]
        seq2 = [backoff(k, base=0.05, jitter=0.5,
                        rng=np.random.default_rng(42)) for k in range(6)]
        assert seq1 == seq2

    def test_jittered_draw_stays_in_window(self):
        rng = np.random.default_rng(7)
        for k in range(1, 9):  # attempts are 1-based
            d = backoff(k, base=0.05, cap=5.0, jitter=0.5, rng=rng)
            full = min(0.05 * 2 ** (k - 1), 5.0)
            assert full * 0.5 <= d <= full

    def test_different_seeds_differ(self):
        a = [backoff(3, jitter=0.5, rng=np.random.default_rng(1))
             for _ in range(4)]
        b = [backoff(3, jitter=0.5, rng=np.random.default_rng(2))
             for _ in range(4)]
        assert a != b


# ---------------------------------------------------------------------------
# satellite 3b: serve retry taxonomy — SDC distinct from crash/numerical
# ---------------------------------------------------------------------------
class TestServeSdcTaxonomy:
    def _service(self, tmp_path, **kw):
        from repro.serve import EvdService

        kw.setdefault("workers", 1)
        kw.setdefault("spool_dir", str(tmp_path / "spool"))
        kw.setdefault("scheduler_interval", 0.01)
        kw.setdefault("tick", 0.01)
        return EvdService(**kw)

    def test_persistent_sdc_retries_and_recovers(self, rng, tmp_path):
        from repro.serve import RetryPolicy

        a = random_symmetric(24, rng)
        # count=5 outlives the in-driver ladder's budget, so the worker
        # sees an SdcError; the next attempt drains the remaining
        # firings and succeeds at the SAME precision.
        inj = FaultInjector(FaultSpec(site="wy_right", kind="bitflip",
                                      call_index=1, count=5, seed=3))
        with self._service(tmp_path) as svc:
            jid = svc.submit(
                a, precision="fp32", b=8, abft="detect", faults=inj,
                retry=RetryPolicy(max_attempts=4, backoff_base=0.001),
                tag="sdc-persistent",
            )
            res = svc.result(jid, timeout=120.0)
        assert res is not None and res.ok
        assert res.sdc_retries >= 1
        assert inj.fired
        # Taxonomy: SDC retries are NOT precision escalations.
        np.testing.assert_allclose(res.eigenvalues, np.linalg.eigvalsh(a),
                                   atol=1e-4)
        rec = [json.loads(l) for l in open(svc.manifest_path)][0]
        assert rec["sdc_retries"] == res.sdc_retries

    def test_clean_job_has_zero_sdc_retries(self, rng, tmp_path):
        a = random_symmetric(16, rng)
        with self._service(tmp_path) as svc:
            res = svc.result(svc.submit(a, precision="fp32", b=8,
                                        abft="correct"), timeout=60.0)
        assert res is not None and res.ok and res.sdc_retries == 0

    def test_exhausted_sdc_retries_fail_with_sdc_error_type(self, rng, tmp_path):
        from repro.serve import RetryPolicy

        a = random_symmetric(24, rng)
        inj = FaultInjector(FaultSpec(site="wy_right", kind="bitflip",
                                      call_index=0, count=10_000, seed=3))
        with self._service(tmp_path) as svc:
            jid = svc.submit(
                a, precision="fp32", b=8, abft="detect", faults=inj,
                retry=RetryPolicy(max_attempts=2, backoff_base=0.001),
                tag="sdc-doomed",
            )
            res = svc.result(jid, timeout=120.0)
        assert res is not None and res.outcome == "failed"
        assert res.error_type == "SdcError"
        assert res.sdc_retries >= 1
        # SLO accounting singles SDC jobs out.
        prom = (tmp_path / "spool" / "metrics.prom").read_text()
        assert "repro_serve_slo_sdc_jobs_total" in prom


# ---------------------------------------------------------------------------
# manifest line, report rendering, audit CLI
# ---------------------------------------------------------------------------
class TestManifestReportCli:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        from repro.obs.record import record_syevd

        out = tmp_path_factory.mktemp("abft-runs")
        run = record_syevd(n=32, b=8, precision="fp32", abft="detect",
                           seed=0, run_dir=str(out), probes=False)
        return out, run

    def test_manifest_carries_abft_line(self, recorded):
        from repro.obs.manifest import load_manifest

        out, run = recorded
        man = load_manifest(run.path)
        assert man.abft is not None
        assert man.abft["mode"] == "detect"
        assert man.abft["verified"] > 0 and man.abft["detected"] == 0
        assert man.meta.get("config", {}).get("abft") == "detect"
        back = AbftReport.from_dict(man.abft)
        assert back.verified == man.abft["verified"]

    def test_report_renders_abft_section(self, recorded):
        from repro.obs.manifest import load_manifest
        from repro.obs.report import render_report

        out, run = recorded
        text = render_report(load_manifest(run.path))
        assert "online abft [detect]" in text
        assert "launches verified" in text

    def test_abft_verify_cli(self, recorded, capsys):
        from repro.resilience.__main__ import main

        out, run = recorded
        assert main(["abft-verify", str(out)]) == 0
        text = capsys.readouterr().out
        assert "abft[detect]" in text
        assert main(["abft-verify", "--json", str(run.path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifests"] and payload["manifests"][0]["mode"] == "detect"

    def test_abft_verify_cli_no_abft_runs(self, tmp_path, capsys):
        from repro.obs.record import record_syevd
        from repro.resilience.__main__ import main

        record_syevd(n=32, b=8, precision="fp32", seed=0,
                     run_dir=str(tmp_path), probes=False)
        assert main(["abft-verify", str(tmp_path)]) == 1
        assert main(["abft-verify", str(tmp_path / "missing")]) == 2
