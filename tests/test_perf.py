"""Performance layer: workspace arena, out=/batched engine API, mirrors.

Covers PR 5's contracts:

- :class:`repro.perf.Workspace` reuse/accounting semantics (thread-keyed
  buffers, capacity reuse, the :class:`NullWorkspace` control);
- the engine calling convention — ``out=`` (including aliasing safety),
  ``ta``/``tb`` transpose flags, ``gemm_batched`` exactness vs a looped
  ``gemm`` per precision mode, fused ``syr2k``;
- the symmetry-mirrored block-boundary update (exact symmetry, full
  two-sided accuracy);
- the ``alloc`` manifest line round-trip.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.gemm.engine import (
    EcTensorCoreEngine,
    Fp64Engine,
    PlainEngine,
    SgemmEngine,
    TensorCoreEngine,
    make_engine,
)
from repro.errors import ShapeError
from repro.perf import NullWorkspace, Workspace, resolve_workspace
from repro.sbr import sbr_wy, sbr_zy
from tests.conftest import random_symmetric

ENGINE_FACTORIES = [
    pytest.param(PlainEngine, id="plain"),
    pytest.param(SgemmEngine, id="sgemm"),
    pytest.param(Fp64Engine, id="fp64"),
    pytest.param(TensorCoreEngine, id="tc-fp16"),
    pytest.param(lambda **kw: TensorCoreEngine(operand_format="tf32", **kw), id="tc-tf32"),
    pytest.param(EcTensorCoreEngine, id="ectc"),
]


def _operands(rng, m=24, k=16, n=12, dtype=np.float32):
    a = rng.standard_normal((m, k)).astype(dtype)
    b = rng.standard_normal((k, n)).astype(dtype)
    return a, b


class TestWorkspace:
    def test_take_reuses_backing_buffer(self):
        ws = Workspace()
        a = ws.take("t", (4, 3))
        b = ws.take("t", (4, 3))
        assert np.shares_memory(a, b)
        assert ws.hits == 1 and ws.misses == 1

    def test_capacity_reuse_for_smaller_takes(self):
        ws = Workspace()
        big = ws.take("t", (8, 8))
        small = ws.take("t", (4, 4))
        assert np.shares_memory(big, small)
        assert small.shape == (4, 4)
        assert ws.misses == 1 and ws.hits == 1

    def test_growth_reallocates(self):
        ws = Workspace()
        ws.take("t", (4, 4))
        ws.take("t", (8, 8))
        assert ws.misses == 2

    def test_dtype_change_reallocates(self):
        ws = Workspace()
        ws.take("t", (4,), np.float32)
        ws.take("t", (4,), np.float64)
        assert ws.misses == 2

    def test_distinct_tags_distinct_buffers(self):
        ws = Workspace()
        a = ws.take("a", (4,))
        b = ws.take("b", (4,))
        assert not np.shares_memory(a, b)

    def test_zero_size_take(self):
        ws = Workspace()
        out = ws.take("t", (0, 5))
        assert out.shape == (0, 5)

    def test_thread_keyed_buffers(self):
        ws = Workspace()
        main_buf = ws.take("t", (16,))
        other: list[np.ndarray] = []
        th = threading.Thread(target=lambda: other.append(ws.take("t", (16,))))
        th.start()
        th.join()
        assert not np.shares_memory(main_buf, other[0])

    def test_stats_by_tag(self):
        ws = Workspace()
        ws.take("x", (4,))
        ws.take("x", (4,))
        ws.take("y", (2, 2), np.float64)
        st = ws.stats()
        assert st["arena"] is True
        assert st["takes"] == 3 and st["hits"] == 1 and st["misses"] == 2
        assert st["by_tag"]["x"]["hits"] == 1
        assert st["by_tag"]["y"]["bytes_allocated"] == 32

    def test_null_workspace_always_allocates(self):
        ws = NullWorkspace()
        a = ws.take("t", (4,))
        b = ws.take("t", (4,))
        assert not np.shares_memory(a, b)
        assert ws.hits == 0 and ws.misses == 2
        assert ws.stats()["arena"] is False

    def test_resolve_workspace(self):
        ws = Workspace()
        assert resolve_workspace(ws) is ws
        assert type(resolve_workspace(None)) is Workspace
        assert type(resolve_workspace(True)) is Workspace
        assert type(resolve_workspace(False)) is NullWorkspace
        with pytest.raises(TypeError):
            resolve_workspace("yes")


class TestEngineOut:
    @pytest.mark.parametrize("factory", ENGINE_FACTORIES)
    def test_out_is_written_and_returned(self, rng, factory):
        eng = factory()
        a, b = _operands(rng)
        ref = eng.gemm(a, b)
        out = np.empty_like(ref)
        res = eng.gemm(a, b, out=out)
        assert res is out
        assert np.array_equal(res, ref)

    @pytest.mark.parametrize("factory", ENGINE_FACTORIES)
    def test_out_aliasing_an_operand_is_safe(self, rng, factory):
        eng = factory()
        a0 = rng.standard_normal((16, 16)).astype(np.float32)
        b = rng.standard_normal((16, 16)).astype(np.float32)
        ref = eng.gemm(a0, b)
        a = a0.astype(ref.dtype)  # aliasable buffer in the result dtype
        res = eng.gemm(a, b, out=a)
        assert res is a
        assert np.array_equal(res, ref)

    def test_out_view_overlap_is_safe(self, rng):
        # out= being a *view into* an operand (not the operand itself)
        # must also route through the temporary.
        eng = SgemmEngine()
        buf = rng.standard_normal((20, 16)).astype(np.float32)
        a = buf[:16, :]
        ref = eng.gemm(a.copy(), a.copy(), out=None)
        res = eng.gemm(a, a, out=buf[4:, :])
        assert np.array_equal(res, ref)

    def test_out_shape_mismatch_raises(self, rng):
        eng = SgemmEngine()
        a, b = _operands(rng)
        with pytest.raises(ShapeError):
            eng.gemm(a, b, out=np.empty((3, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            eng.gemm(a, b, out=[[0.0]])

    @pytest.mark.parametrize("factory", ENGINE_FACTORIES)
    def test_transpose_flags(self, rng, factory):
        # ta/tb pass no-copy views; the numbers must match multiplying the
        # materialized transpose (tolerance: BLAS may pick a different
        # kernel for strided operands).
        eng = factory()
        a, b = _operands(rng)
        at = rng.standard_normal((16, 24)).astype(np.float32)  # a.T shape
        bt = rng.standard_normal((12, 16)).astype(np.float32)  # b.T shape
        np.testing.assert_allclose(
            eng.gemm(at, b, ta=True),
            eng.gemm(np.ascontiguousarray(at.T), b),
            rtol=2e-6, atol=2e-6,
        )
        np.testing.assert_allclose(
            eng.gemm(a, bt, tb=True),
            eng.gemm(a, np.ascontiguousarray(bt.T)),
            rtol=2e-6, atol=2e-6,
        )

    def test_transpose_flags_shape_validation(self, rng):
        eng = PlainEngine()
        a, b = _operands(rng)
        with pytest.raises(ShapeError):
            eng.gemm(a, b, ta=True)  # (16, 24) @ (16, 12) mismatch

    def test_trace_records_logical_shapes(self, rng):
        eng = PlainEngine(record=True)
        a, b = _operands(rng, m=24, k=16, n=12)
        at = np.ascontiguousarray(a.T)
        eng.gemm(at, b, ta=True, tag="t")
        rec = eng.trace[-1]
        assert (rec.m, rec.n, rec.k) == (24, 12, 16)


class TestGemmBatched:
    @pytest.mark.parametrize("factory", ENGINE_FACTORIES)
    def test_matches_looped_gemm_exactly(self, rng, factory):
        eng = factory()
        sa = rng.standard_normal((4, 12, 8)).astype(np.float32)
        sb = rng.standard_normal((4, 8, 10)).astype(np.float32)
        res = eng.gemm_batched(sa, sb, tag="batch")
        assert res.shape == (4, 12, 10)
        for i in range(4):
            assert np.array_equal(res[i], eng.gemm(sa[i], sb[i], tag="loop"))

    def test_batched_out_and_transpose(self, rng):
        eng = SgemmEngine()
        sa = rng.standard_normal((3, 8, 12)).astype(np.float32)
        sb = rng.standard_normal((3, 8, 10)).astype(np.float32)
        ref = eng.gemm_batched(np.ascontiguousarray(sa.swapaxes(-2, -1)), sb)
        out = np.empty_like(ref)
        res = eng.gemm_batched(sa, sb, ta=True, out=out)
        assert res is out
        np.testing.assert_allclose(res, ref, rtol=2e-6, atol=2e-6)

    def test_batched_record(self, rng):
        eng = SgemmEngine(record=True)
        sa = rng.standard_normal((5, 6, 4)).astype(np.float32)
        sb = rng.standard_normal((5, 4, 3)).astype(np.float32)
        eng.gemm_batched(sa, sb, tag="b")
        rec = eng.trace[-1]
        assert rec.op == "gemm_batched" and rec.batch == 5
        assert (rec.m, rec.n, rec.k) == (6, 3, 4)

    def test_batched_rejects_2d(self, rng):
        eng = SgemmEngine()
        a, b = _operands(rng)
        with pytest.raises(ShapeError):
            eng.gemm_batched(a, b)


class TestSyr2k:
    def test_fused_update_matches_subtraction_bitwise(self, rng):
        eng = SgemmEngine()
        c0 = random_symmetric(16, rng, dtype=np.float32)
        z = rng.standard_normal((16, 4)).astype(np.float32)
        y = rng.standard_normal((16, 4)).astype(np.float32)
        ref = c0 - eng.syr2k(z, y, tag="ref")
        c = c0.copy()
        res = eng.syr2k(z, y, tag="fused", out=c, alpha=-1.0, beta=1.0)
        assert res is c
        assert np.array_equal(res, ref)

    def test_beta_zero_writes_out(self, rng):
        eng = SgemmEngine()
        z = rng.standard_normal((8, 3)).astype(np.float32)
        y = rng.standard_normal((8, 3)).astype(np.float32)
        out = np.full((8, 8), np.nan, dtype=np.float32)
        res = eng.syr2k(z, y, out=out)
        assert res is out
        assert np.array_equal(out, eng.syr2k(z, y))

    def test_output_exactly_symmetric(self, rng):
        eng = SgemmEngine()
        z = rng.standard_normal((10, 4)).astype(np.float32)
        y = rng.standard_normal((10, 4)).astype(np.float32)
        s = eng.syr2k(z, y)
        assert np.array_equal(s, s.T)

    def test_beta_without_out_raises(self, rng):
        eng = SgemmEngine()
        z = rng.standard_normal((8, 3)).astype(np.float32)
        with pytest.raises(ShapeError):
            eng.syr2k(z, z, beta=1.0)


class TestMirroredUpdate:
    """The lower-triangle + mirror block-boundary update (tentpole 3)."""

    def test_band_exactly_symmetric(self, rng):
        a = random_symmetric(96, rng)
        res = sbr_wy(a, 8, 32, engine=Fp64Engine(), want_q=False)
        assert np.array_equal(res.band, res.band.T)

    def test_mirrored_equals_full_two_sided_update(self, rng):
        # Q^T A Q reconstructed from the returned transform must match the
        # band to fp64 roundoff — the mirror writes the same numbers the
        # full two-sided update would have produced.
        n = 96
        a = random_symmetric(n, rng)
        res = sbr_wy(a, 8, 32, engine=Fp64Engine(), want_q=True)
        resid = res.q.T @ a @ res.q - res.band
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(a)

    def test_zy_fused_trailing_update(self, rng):
        a = random_symmetric(64, rng)
        res = sbr_zy(a, 8, engine=Fp64Engine(), want_q=True)
        assert np.array_equal(res.band, res.band.T)
        resid = res.q.T @ a @ res.q - res.band
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(a)


class TestWorkspaceInDrivers:
    @pytest.mark.parametrize("precision", ["fp32", "fp16_ec_tc"])
    def test_steady_state_is_allocation_free(self, rng, precision):
        ws = Workspace()
        a = random_symmetric(256, rng)
        sbr_wy(a, 8, 32, engine=make_engine(precision), want_q=False, workspace=ws)
        # Acceptance: >= 10x fewer hot-loop allocations than takes.
        assert ws.misses * 10 <= ws.hits + ws.misses
        assert ws.hits > 0

    def test_null_workspace_counts_every_take(self, rng):
        on, off = Workspace(), NullWorkspace()
        a = random_symmetric(96, rng)
        sbr_wy(a, 8, 32, engine=make_engine("fp32"), want_q=False, workspace=on)
        sbr_wy(a, 8, 32, engine=make_engine("fp32"), want_q=False, workspace=off)
        assert off.hits == 0
        assert off.misses == on.hits + on.misses  # identical take stream
        assert off.bytes_allocated > on.bytes_allocated

    def test_workspace_off_identical_result(self, rng):
        a = random_symmetric(96, rng)
        r_on = sbr_wy(a, 8, 32, engine=make_engine("fp32"), want_q=False)
        r_off = sbr_wy(
            a, 8, 32, engine=make_engine("fp32"), want_q=False, workspace=False
        )
        assert np.array_equal(r_on.band, r_off.band)

    def test_result_carries_workspace(self, rng):
        from repro.eig.driver import syevd_2stage

        a = random_symmetric(64, rng)
        res = syevd_2stage(a, b=8, nb=16, want_vectors=False)
        assert res.workspace is not None
        assert res.workspace.stats()["takes"] > 0


class TestAllocManifest:
    def test_alloc_line_round_trip(self, rng, tmp_path):
        from repro.obs import load_manifest, record_syevd

        path = str(tmp_path / "run.jsonl")
        run = record_syevd(
            n=64, b=8, nb=16, want_vectors=False, probes=False, path=path
        )
        man = load_manifest(run.path)
        assert man.alloc is not None
        assert man.alloc["takes"] == man.alloc["hits"] + man.alloc["misses"]
        assert man.alloc["arena"] is True
        assert "by_tag" in man.alloc


class TestPreparedOperand:
    def test_ec_prepared_gemm_bitwise_identical(self, rng):
        eng = make_engine("fp16_ec_tc")
        a, b = _operands(rng, m=48, k=48, n=8)
        ref = eng.gemm(a, b, tag="t")
        handle = eng.prepare_operand(a, tag="oa")
        assert np.array_equal(eng.gemm(handle, b, tag="t"), ref)
        # Works on either side, and with out=.
        c = rng.standard_normal((8, 48)).astype(np.float32)
        assert np.array_equal(
            eng.gemm(c, eng.prepare_operand(a)), eng.gemm(c, a)
        )
        out = np.empty_like(ref)
        res = eng.gemm(handle, b, out=out)
        assert res is out and np.array_equal(out, ref)

    def test_prepare_amortizes_split_through_workspace(self, rng):
        ws = Workspace()
        eng = make_engine("fp16_ec_tc", workspace=ws)
        a, b = _operands(rng, m=32, k=32, n=4)
        handle = eng.prepare_operand(a, tag="oa")
        before = ws.misses
        eng.gemm(handle, b)
        eng.gemm(handle, b)
        # The second call allocates nothing new: the a-side split is the
        # handle's, and the b-side/correction scratch is reused.
        assert ws.misses > before  # first call allocated b-split scratch
        first = ws.misses
        eng.gemm(handle, b)
        assert ws.misses == first

    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    def test_default_prepare_is_passthrough(self, rng, precision):
        eng = make_engine(precision)
        a, b = _operands(rng)
        prepared = eng.prepare_operand(a)
        assert prepared is a
        assert np.array_equal(eng.gemm(prepared, b), eng.gemm(a, b))

    def test_prepared_operand_rejects_transpose(self, rng):
        eng = make_engine("fp16_ec_tc")
        a, _ = _operands(rng, m=16, k=16, n=16)
        handle = eng.prepare_operand(a)
        with pytest.raises(ShapeError):
            eng.gemm(handle, a, ta=True)
        with pytest.raises(ShapeError):
            eng.gemm(a, handle, tb=True)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("workspace", [False, True], ids=["bare", "arena"])
    def test_handle_views_are_bitwise_the_arrays(self, rng, workspace, order):
        # Column-block, row-block and transposed views of a handle
        # multiply exactly like the same views of its array, with and
        # without out=, whatever the source's memory order.  (BLAS sums
        # a transposed operand in another order at this shape, so the
        # handle must reach it in the layout a fresh split would have.)
        eng = make_engine("fp16_ec_tc", workspace=Workspace() if workspace else None)
        a = np.asarray(rng.standard_normal((40, 12)), np.float32, order=order)
        b = rng.standard_normal((40, 5)).astype(np.float32)
        c = rng.standard_normal((7, 38)).astype(np.float32)
        h = eng.prepare_operand(a, tag="h")
        for got_a, got_b, want_a, want_b in (
            (h[:, 3:9].T, b, a[:, 3:9].T, b),
            (c, h[2:, :], c, a[2:, :]),
        ):
            ref = eng.gemm(want_a, want_b)
            assert np.array_equal(eng.gemm(got_a, got_b), ref)
            out = np.empty_like(ref)
            res = eng.gemm(got_a, got_b, out=out)
            assert res is out and np.array_equal(out, ref)

    @pytest.mark.parametrize("precision", ["fp16_ec_tc", "tf32_tc", "fp32", "fp64"])
    def test_every_engine_resplits_a_handle_view(self, rng, precision):
        # An escalated engine must refresh the EC handle it is handed, or
        # the restored EC engine multiplies stale splits.
        from repro.precision.rounding import split_fp16

        a = rng.standard_normal((16, 8)).astype(np.float32)
        h = make_engine("fp16_ec_tc").prepare_operand(a, tag="h", cols=3)
        a[:, 3:8] = rng.standard_normal((16, 5))
        make_engine(precision).prepare_operand(h[:, 3:8], tag="t")
        hi, lo = split_fp16(a)
        lo *= np.float32(2.0**-11)  # a handle stores lo descaled
        assert np.array_equal(h.hi, hi) and np.array_equal(h.lo, lo)

    def test_split_elements_are_counted(self, rng):
        from repro import obs

        eng = make_engine("fp16_ec_tc")
        a, b = _operands(rng, m=24, k=16, n=12)
        with obs.collect() as session, obs.span("t"):
            h = eng.prepare_operand(a, tag="h", cols=10)
            eng.prepare_operand(h[:, 10:16])
            eng.gemm(h, b)
        (sp,) = [s for s in session.spans if s.name == "t"]
        assert sp.counters["ec_split_elems"] == 24 * 10 + 24 * 6 + b.size


class TestEngineWorkspace:
    def test_ec_split_buffers_reused_across_calls(self, rng):
        ws = Workspace()
        eng = make_engine("fp16_ec_tc", workspace=ws)
        a, b = _operands(rng, m=32, k=32, n=32)
        ref = make_engine("fp16_ec_tc").gemm(a, b)
        r1 = eng.gemm(a, b)
        r2 = eng.gemm(a, b)
        assert np.array_equal(r1, ref)  # arena must not change numerics
        assert np.array_equal(r1, r2)
        assert ws.hits > 0  # second call reused the split scratch
