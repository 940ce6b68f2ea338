"""Tests for Tensor-Core precision emulation (rounding, TC-GEMM, EC-TCGEMM)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.precision import (
    BF16_EPS,
    FP16_EPS,
    FP32_EPS,
    TF32_EPS,
    Precision,
    ec_tcgemm,
    round_bf16,
    round_fp16,
    round_tf32,
    round_to_format,
    split_fp16,
    tcgemm,
)
from repro.gemm.engine import make_engine
from repro.perf import Workspace
from repro.precision.ec_tcgemm import _paired
from repro.precision.rounding import ec_split_into, split_fp16_into
from sweep_split_fp16 import mismatches


class TestRounding:
    def test_fp16_idempotent(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        once = round_fp16(x)
        np.testing.assert_array_equal(once, round_fp16(once))

    def test_tf32_idempotent(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        once = round_tf32(x)
        np.testing.assert_array_equal(once, round_tf32(once))

    def test_bf16_idempotent(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        once = round_bf16(x)
        np.testing.assert_array_equal(once, round_bf16(once))

    @pytest.mark.parametrize(
        "fn,eps",
        [(round_fp16, FP16_EPS), (round_tf32, TF32_EPS), (round_bf16, BF16_EPS)],
    )
    def test_relative_error_bounded(self, rng, fn, eps):
        # Restrict to each format's *normalized* range: below ~2^-14 FP16
        # goes subnormal and the relative bound intentionally degrades.
        x = rng.standard_normal(10000).astype(np.float32)
        x = x[np.abs(x) > 2.0**-10]
        rel = np.abs(fn(x) - x) / np.abs(x)
        assert float(rel.max()) <= eps

    def test_fp16_matches_numpy_float16(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        np.testing.assert_array_equal(round_fp16(x), x.astype(np.float16).astype(np.float32))

    def test_tf32_keeps_10_mantissa_bits(self):
        # 1 + 2^-10 is exactly representable in TF32; 1 + 2^-11 rounds to
        # even (down to 1.0).
        assert round_tf32(np.float32(1 + 2.0**-10)) == np.float32(1 + 2.0**-10)
        assert round_tf32(np.float32(1 + 2.0**-11)) == np.float32(1.0)

    def test_bf16_keeps_7_mantissa_bits(self):
        assert round_bf16(np.float32(1 + 2.0**-7)) == np.float32(1 + 2.0**-7)
        assert round_bf16(np.float32(1 + 2.0**-8)) == np.float32(1.0)

    def test_tf32_round_to_nearest_even(self):
        # Halfway case 1 + 3*2^-11 rounds up to 1 + 2^-10*2 (even mantissa).
        val = np.float32(1 + 3 * 2.0**-11)
        assert round_tf32(val) == np.float32(1 + 2 * 2.0**-10)

    def test_tf32_preserves_fp32_exponent_range(self):
        # 1e-30 underflows in FP16 but not TF32.
        small = np.float32(1e-30)
        assert round_fp16(small) == 0.0
        assert round_tf32(small) != 0.0

    def test_rounding_preserves_sign_and_zero(self):
        x = np.array([0.0, -0.0, 1.5, -1.5], dtype=np.float32)
        for fn in (round_fp16, round_tf32, round_bf16):
            out = fn(x)
            assert out[0] == 0 and out[1] == 0
            assert out[2] > 0 and out[3] < 0

    def test_nan_preserved(self):
        x = np.array([np.nan, 1.0], dtype=np.float32)
        for fn in (round_fp16, round_tf32, round_bf16):
            out = fn(x)
            assert np.isnan(out[0]) and out[1] == 1.0

    def test_round_to_format_dispatch(self, rng):
        x = rng.standard_normal(10).astype(np.float32)
        np.testing.assert_array_equal(round_to_format(x, "fp16"), round_fp16(x))
        np.testing.assert_array_equal(round_to_format(x, "tf32"), round_tf32(x))
        np.testing.assert_array_equal(round_to_format(x, "fp32"), x)

    def test_round_to_format_unknown(self):
        with pytest.raises(ValueError, match="unknown operand format"):
            round_to_format(np.zeros(3), "fp8")

    def test_returns_float32(self, rng):
        x = rng.standard_normal(10)
        for fn in (round_fp16, round_tf32, round_bf16):
            assert fn(x).dtype == np.float32


class TestSplitFp16:
    def test_reconstruction_accuracy(self, rng):
        x = rng.standard_normal(5000).astype(np.float32)
        hi, lo = split_fp16(x)
        recon = hi + lo / np.float32(2.0**11)
        rel = np.abs(recon - x) / np.maximum(np.abs(x), 1e-30)
        # Two-term split captures ~22 bits.
        assert float(rel.max()) < 2.0**-20

    def test_hi_is_fp16(self, rng):
        x = rng.standard_normal(100).astype(np.float32)
        hi, lo = split_fp16(x)
        np.testing.assert_array_equal(hi, round_fp16(hi))
        np.testing.assert_array_equal(lo, round_fp16(lo))

    def test_scaling_avoids_underflow(self):
        # Residuals of O(1) values are ~2^-11; unscaled FP16 rounding of the
        # residual would lose bits near the subnormal threshold for small x.
        x = np.full(10, 0.001, dtype=np.float32)
        hi, lo = split_fp16(x)
        recon = hi + lo / np.float32(2.0**11)
        assert float(np.abs(recon - x).max() / 0.001) < 2.0**-20

    # -- the float32-arithmetic kernel against NumPy's float16 cast --------

    @staticmethod
    def assert_split_is_cast(x, hi, lo, *, descaled=False):
        bad = mismatches(np.asarray(x, np.float32), hi, lo, descaled=descaled)
        assert bad.size == 0, np.asarray(x).reshape(-1)[bad[:5]]

    def sweep(self, split, descaled):
        # Every exponent x every low-13-bit mantissa (the bits FP16 drops,
        # so every rounding case) x top 10 mantissa bits all 0 or all 1
        # (the carry cases) x both signs: 8.4M patterns.
        low = np.arange(1 << 13, dtype=np.uint32)
        for sign in (0, 1 << 31):
            for top in (0, 0x3FF << 13):
                for exps in np.array_split(np.arange(256, dtype=np.uint32), 4):
                    bits = (sign | top | (exps[:, None] << 23) | low).ravel()
                    x = bits.view(np.float32)
                    hi, lo = np.empty_like(x), np.empty_like(x)
                    with np.errstate(all="ignore"):
                        split(x, hi, lo)
                        self.assert_split_is_cast(x, hi, lo, descaled=descaled)

    def test_bit_pattern_sweep(self):
        self.sweep(split_fp16_into, False)

    def test_ec_split_bit_pattern_sweep(self):
        # The EC split stores lo descaled: cast((x - hi) * 2^11) * 2^-11.
        self.sweep(ec_split_into, True)

    @pytest.mark.parametrize("layout", ["c", "f", "column_slice", "transposed"])
    def test_ec_split_layouts(self, rng, layout):
        full = (rng.standard_normal((300, 64))
                * np.exp(rng.uniform(-20, 12, (300, 64)))).astype(np.float32)
        x = {"c": full, "f": np.asfortranarray(full),
             "column_slice": full[:, 16:48], "transposed": full.T}[layout]
        hi_buf = np.full((300, 64), 7.0, np.float32)
        lo_buf = np.full((300, 64), 7.0, np.float32)
        if layout == "column_slice":
            hi, lo = hi_buf[:, 16:48], lo_buf[:, 16:48]
        else:
            hi, lo = np.empty_like(x), np.empty_like(x)
        with np.errstate(over="ignore", invalid="ignore"):
            assert ec_split_into(x, hi, lo) == (hi, lo)
            self.assert_split_is_cast(x, hi, lo, descaled=True)
        assert (hi_buf[:, :16] == 7.0).all() and (lo_buf[:, 48:] == 7.0).all()

    def test_special_values(self):
        sub = np.float32(2.0**-24)  # FP16's smallest subnormal
        vals = [0.0, np.inf, np.nan, 65504.0, 65519.0, 65519.996, 65520.0,
                65536.0, 2.0**-14, 2.0**-14 - 2.0**-25, sub, sub / 2,
                sub / 2 * (1 + 2.0**-23), 1.5 * sub, 2.5 * sub, 1e-30, 1e38]
        x = np.array(vals + [-v for v in vals], np.float32)
        with np.errstate(all="ignore"):
            hi, lo = split_fp16(x)
            self.assert_split_is_cast(x, hi, lo)
        assert np.signbit(hi[len(vals)]) and np.signbit(hi[len(vals) + 11])
        assert np.isinf(hi[6]) and hi[3] == 65504.0 and hi[5] == 65504.0
        assert np.isnan(hi[2]) and np.isnan(lo[1])

    @pytest.mark.parametrize("layout", [
        "c", "f", "column_slice", "transposed", "transposed_into_c",
        "stack_3d", "f_stack_3d", "empty", "one", "long_vector", "wide_rows",
    ])
    def test_layouts(self, rng, layout):
        def data(shape):
            # Entries spread over FP16's subnormal, normal and overflow
            # ranges, so the clamp and overflow passes run too.
            x = rng.standard_normal(shape) * np.exp(rng.uniform(-20, 12, shape))
            return x.astype(np.float32)

        shapes = {"c": (300, 200), "f": (300, 200), "stack_3d": (3, 200, 90),
                  "f_stack_3d": (3, 200, 90), "empty": (0, 7), "one": (1, 1),
                  "long_vector": (100_000,), "wide_rows": (2, 40_000)}
        if layout == "column_slice":
            # W/Y/OAW-style: columns k0:k1 of (M, nb) buffers.
            full = data((992, 64))
            x = full[:, 16:48]
            hi_buf = np.full((992, 64), 7.0, np.float32)
            lo_buf = np.full((992, 64), 7.0, np.float32)
            hi, lo = hi_buf[:, 16:48], lo_buf[:, 16:48]
        else:
            x = data(shapes.get(layout, (200, 300)))
            if layout in ("f", "f_stack_3d"):
                x = np.asfortranarray(x)
            elif layout.startswith("transposed"):
                x = x.T
            if layout == "transposed_into_c":
                # W.T-style: a transposed view split into row-major buffers.
                hi, lo = np.empty(x.shape, np.float32), np.empty(x.shape, np.float32)
            else:
                hi, lo = np.empty_like(x), np.empty_like(x)
        with np.errstate(over="ignore", invalid="ignore"):
            out = split_fp16_into(x, hi, lo)
            self.assert_split_is_cast(x, hi, lo)
        assert out[0] is hi and out[1] is lo
        if layout == "column_slice":
            for buf in (hi_buf, lo_buf):
                assert (buf[:, :16] == 7.0).all() and (buf[:, 48:] == 7.0).all()

    def test_scalar_input(self):
        hi, lo = split_fp16(np.float32(1.0 + 2.0**-12))
        assert hi.shape == lo.shape == ()
        assert hi == 1.0 and lo == 0.5  # the tie goes to even; 2^-12 * 2^11

    def test_fresh_split_keeps_memory_order(self, rng):
        # BLAS sums a transposed operand in another order, so an
        # F-ordered operand's split must stay F-ordered.
        x = np.asfortranarray(rng.standard_normal((40, 30)).astype(np.float32))
        hi, lo = split_fp16(x)
        assert hi.flags.f_contiguous and not hi.flags.c_contiguous
        assert lo.flags.f_contiguous and not lo.flags.c_contiguous
        hi_t, _ = split_fp16(x.T)
        assert hi_t.flags.c_contiguous


class TestTcgemm:
    def test_matches_fp16_reference(self, rng):
        a = rng.standard_normal((20, 30)).astype(np.float32)
        b = rng.standard_normal((30, 10)).astype(np.float32)
        expected = round_fp16(a) @ round_fp16(b)
        np.testing.assert_allclose(tcgemm(a, b), expected, rtol=1e-6)

    def test_error_level_is_fp16(self, rng):
        a = rng.standard_normal((64, 64)).astype(np.float32)
        b = rng.standard_normal((64, 64)).astype(np.float32)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        err = np.abs(tcgemm(a, b) - exact).max() / np.abs(exact).max()
        assert 1e-5 < err < 1e-2  # fp16-grade, not fp32-grade

    def test_fp32_format_is_plain_matmul(self, rng):
        a = rng.standard_normal((8, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        np.testing.assert_allclose(tcgemm(a, b, operand_format="fp32"), a @ b, rtol=1e-6)

    def test_chunked_accumulation_close_to_unchunked(self, rng):
        a = rng.standard_normal((16, 128)).astype(np.float32)
        b = rng.standard_normal((128, 16)).astype(np.float32)
        full = tcgemm(a, b)
        chunked = tcgemm(a, b, chunk_k=32)
        np.testing.assert_allclose(chunked, full, rtol=1e-4, atol=1e-4)

    def test_chunk_larger_than_k(self, rng):
        a = rng.standard_normal((4, 8)).astype(np.float32)
        b = rng.standard_normal((8, 4)).astype(np.float32)
        np.testing.assert_array_equal(tcgemm(a, b, chunk_k=100), tcgemm(a, b))

    def test_result_dtype_float32(self, rng):
        out = tcgemm(rng.standard_normal((3, 4)), rng.standard_normal((4, 5)))
        assert out.dtype == np.float32

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError):
            tcgemm(np.zeros((3, 4)), np.zeros((5, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            tcgemm(np.zeros(3), np.zeros((3, 2)))

    def test_rejects_bad_chunk(self, rng):
        with pytest.raises(ValueError):
            tcgemm(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)), chunk_k=0)

    @pytest.mark.parametrize("fmt,eps", [("bf16", BF16_EPS), ("tf32", TF32_EPS)])
    def test_other_formats_error_levels(self, rng, fmt, eps):
        a = rng.standard_normal((64, 64)).astype(np.float32)
        b = rng.standard_normal((64, 64)).astype(np.float32)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        err = np.abs(tcgemm(a, b, operand_format=fmt) - exact).max() / np.abs(exact).max()
        assert err < 100 * eps * np.sqrt(64)


class TestEcTcgemm:
    def test_recovers_fp32_accuracy(self, rng):
        a = rng.standard_normal((64, 96)).astype(np.float32)
        b = rng.standard_normal((96, 48)).astype(np.float32)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        scale = np.abs(exact).max()
        err_ec = np.abs(ec_tcgemm(a, b) - exact).max() / scale
        err_tc = np.abs(tcgemm(a, b) - exact).max() / scale
        assert err_ec < 1e-6          # fp32-grade
        assert err_tc > 50 * err_ec   # and much better than plain TC

    def test_comparable_to_sgemm(self, rng):
        a = rng.standard_normal((32, 32)).astype(np.float32)
        b = rng.standard_normal((32, 32)).astype(np.float32)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        err_ec = np.abs(ec_tcgemm(a, b) - exact).max()
        err_sg = np.abs((a @ b) - exact).max()
        assert err_ec < 16 * max(err_sg, FP32_EPS)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            ec_tcgemm(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_wide_dynamic_range(self, rng):
        # Entries spanning many orders of magnitude: the scaled residual
        # split must not underflow away the small entries' corrections.
        a = (rng.standard_normal((32, 32)) * 10.0 ** rng.uniform(-3, 3, (32, 32))).astype(np.float32)
        b = rng.standard_normal((32, 32)).astype(np.float32)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        err = np.abs(ec_tcgemm(a, b) - exact).max() / np.abs(exact).max()
        assert err < 1e-5


class TestPairedProduct:
    """``A_hi @ [B_hi | B_lo]`` in one BLAS call is bitwise the main and
    ``ΔB`` products made apart, in every form the engine takes it."""

    SHAPES = [(992, 992, 32), (736, 736, 32), (128, 4096, 64)]

    @staticmethod
    def reference(a, b):
        # The three products of row-major splits, combined as before the
        # pairing: main + (corr_a + corr_b) * 2^-11.
        a_hi, a_lo = split_fp16(np.ascontiguousarray(a))
        b_hi, b_lo = split_fp16(np.ascontiguousarray(b))
        return a_hi @ b_hi + (a_lo @ b_hi + a_hi @ b_lo) * np.float32(2.0**-11)

    @staticmethod
    def operands(rng, m, k, n, order):
        a = (rng.standard_normal((m, k)) * 0.03).astype(np.float32, order=order)
        b = (rng.standard_normal((k, n)) * 0.03).astype(np.float32, order=order)
        return a, b

    @pytest.mark.parametrize("m,k,n", SHAPES)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_paired_gemm_and_prepared(self, rng, m, k, n, order):
        assert _paired(m, k, n)
        a, b = self.operands(rng, m, k, n, order)
        want = self.reference(a, b).tobytes()
        ws = Workspace()
        eng = make_engine("fp16_ec_tc", workspace=ws)
        assert eng.gemm(a, b).tobytes() == want
        # The pair went to BLAS: no separate lo buffer for B was taken.
        assert "ec_b_lo" not in ws.stats()["by_tag"]
        ha = eng.prepare_operand(a, tag="pa")
        hb = eng.prepare_operand(b, tag="pb")
        assert eng.gemm(ha, hb).tobytes() == want
        assert eng.gemm(a, hb).tobytes() == want
        out = np.full((m, n), 7.0, np.float32)
        assert eng.gemm(ha, b, out=out) is out and out.tobytes() == want

    @pytest.mark.parametrize("m,k,n", SHAPES[1:])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_paired_batched_is_per_slice(self, rng, m, k, n, order):
        a, b = self.operands(rng, m, k, n, order)
        a2, b2 = self.operands(rng, m, k, n, order)
        eng = make_engine("fp16_ec_tc", workspace=Workspace())
        got = eng.gemm_batched(np.stack([a, a2]), np.stack([b, b2]))
        assert got[0].tobytes() == self.reference(a, b).tobytes()
        assert got[1].tobytes() == self.reference(a2, b2).tobytes()

    def test_unpaired_shapes_keep_three_products(self, rng):
        # A small A or a wide B is not paired, and gives the same bits.
        for m, k, n in [(64, 992, 32), (224, 224, 32), (992, 992, 96)]:
            assert not _paired(m, k, n)
            a, b = self.operands(rng, m, k, n, "C")
            ws = Workspace()
            got = make_engine("fp16_ec_tc", workspace=ws).gemm(a, b)
            assert got.tobytes() == self.reference(a, b).tobytes()
            assert "ec_b_lo" in ws.stats()["by_tag"]
            assert ec_tcgemm(a, b).tobytes() == got.tobytes()


class TestPrecisionEnum:
    def test_from_name_roundtrip(self):
        for mode in Precision:
            assert Precision.from_name(mode.value) is mode
            assert Precision.from_name(mode) is mode

    def test_from_name_case_insensitive(self):
        assert Precision.from_name("FP16_TC") is Precision.FP16_TC

    def test_from_name_unknown(self):
        with pytest.raises(ValueError, match="unknown precision"):
            Precision.from_name("fp8")

    def test_tensor_core_flags(self):
        assert Precision.FP16_TC.uses_tensor_core
        assert Precision.FP16_EC_TC.uses_tensor_core
        assert not Precision.FP32.uses_tensor_core
        assert not Precision.FP64.uses_tensor_core

    def test_error_corrected_flag(self):
        assert Precision.FP16_EC_TC.is_error_corrected
        assert not Precision.FP16_TC.is_error_corrected

    def test_machine_eps_ordering(self):
        assert Precision.FP64.machine_eps < Precision.FP32.machine_eps
        assert Precision.FP32.machine_eps < Precision.FP16_TC.machine_eps
        assert Precision.FP16_TC.machine_eps < Precision.BF16_TC.machine_eps

    def test_ec_eps_is_fp32(self):
        assert Precision.FP16_EC_TC.machine_eps == Precision.FP32.machine_eps

    def test_working_dtype(self):
        assert Precision.FP64.working_dtype == np.float64
        for mode in (Precision.FP32, Precision.FP16_TC, Precision.FP16_EC_TC):
            assert mode.working_dtype == np.float32

    def test_round_operand_matches_format(self, rng):
        x = rng.standard_normal(100).astype(np.float32)
        np.testing.assert_array_equal(Precision.FP16_TC.round_operand(x), round_fp16(x))
        np.testing.assert_array_equal(Precision.TF32_TC.round_operand(x), round_tf32(x))
