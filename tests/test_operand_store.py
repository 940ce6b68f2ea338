"""The Tensor-Core engines' prepared-operand store.

One handle type (:mod:`repro.precision.prepared`) serves the EC engine
(``hi``/``lo`` splits) and the FP16/BF16/TF32 engines (the rounded
``hi``).  The store must be bitwise what the per-launch transformation
gives, copy nothing per launch in SBR, and live only for the driver
call whose arena holds it.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.gemm.engine import EcTensorCoreEngine, GemmEngine, make_engine
from repro.perf import Workspace
from repro.precision.prepared import PreparedOperand
from repro.sbr.wy import sbr_wy

TC = ["fp16_tc", "bf16_tc", "tf32_tc", "fp16_ec_tc"]
SHAPES = [(96, 8, 32), (100, 8, 24), (288, 16, 64)]


def _sym(n, seed=0):
    x = np.random.default_rng(seed).standard_normal((n, n))
    return (x + x.T) / 2


def _unprepared(monkeypatch):
    """Every engine hands back the plain array: the per-launch path."""
    def passthrough(self, a, *, tag="prep", cols=None, twins=True):
        return np.asarray(a)

    monkeypatch.setattr(GemmEngine, "prepare_operand", passthrough)
    monkeypatch.setattr(EcTensorCoreEngine, "prepare_operand", passthrough)


def _run(precision, n, b, nb, scenario, run_dir):
    """One ``sbr_wy`` call: plain, with an escalated panel, or resumed mid-block."""
    from repro.ckpt import CheckpointConfig, CheckpointManager
    from repro.errors import SimulatedCrashError
    from repro.resilience import (
        EscalationLadder, FaultInjector, FaultSpec, ResilienceContext,
    )
    from repro.resilience.crash import CrashFaultSpec, CrashInjector

    a = _sym(n, seed=n)
    eng = make_engine(precision, record=True)
    if scenario == "plain":
        return sbr_wy(a, b, nb, engine=eng), eng
    if scenario == "escalated":
        # Panel 1 is retried, escalated below fp64, and the non-sticky
        # ladder restores the base engine for panel 2, which multiplies
        # handles refreshed by the escalated engine.
        ctx = ResilienceContext(
            ladder=EscalationLadder(sticky=False),
            injector=FaultInjector(FaultSpec(site="wy_right", kind="nan", call_index=1)),
        )
        res = sbr_wy(a, b, nb, engine=eng, resilience=ctx)
        assert ctx.report.retries == 1
        return res, eng
    crash = CrashInjector(CrashFaultSpec(site="ckpt.save.sbr_panel.post", call_index=1))
    first = CheckpointManager(CheckpointConfig(run_dir=run_dir, crash=crash))
    first.begin(a, {"driver": "t"})
    with pytest.raises(SimulatedCrashError):
        sbr_wy(a, b, nb, engine=make_engine(precision), checkpoint=first)
    again = CheckpointManager(CheckpointConfig(run_dir=run_dir))
    res = sbr_wy(a, b, nb, engine=eng, checkpoint=again)
    assert again.report.resumed_from is not None
    return res, eng


class TestPreparedIsUnprepared:
    @pytest.mark.parametrize("scenario", ["plain", "escalated", "resumed"])
    @pytest.mark.parametrize("n,b,nb", SHAPES)
    @pytest.mark.parametrize("precision", TC)
    def test_band_q_and_launches_are_bitwise_equal(
            self, precision, n, b, nb, scenario, tmp_path, monkeypatch):
        got, eng = _run(precision, n, b, nb, scenario, str(tmp_path / "p"))
        _unprepared(monkeypatch)
        want, ref = _run(precision, n, b, nb, scenario, str(tmp_path / "u"))
        np.testing.assert_array_equal(got.band, want.band)
        np.testing.assert_array_equal(got.q, want.q)
        assert list(eng.trace) == list(ref.trace)

    @pytest.mark.parametrize("grown", [False, True], ids=["whole", "cols"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("workspace", [False, True], ids=["bare", "arena"])
    @pytest.mark.parametrize("precision", TC)
    def test_views_multiply_like_the_arrays(self, rng, precision, workspace, order,
                                            grown):
        # Every view SBR multiplies, on either side, for a handle made
        # whole or grown column block by column block (transposed twins).
        eng = make_engine(precision, workspace=Workspace() if workspace else None)
        a = np.asarray(rng.standard_normal((40, 12)), np.float32, order=order)
        if grown:
            h = eng.prepare_operand(a, tag="h", cols=5)
            eng.prepare_operand(h[:, 5:12])
        else:
            h = eng.prepare_operand(a, tag="h")
        assert isinstance(h, PreparedOperand)
        b = rng.standard_normal((40, 5)).astype(np.float32)
        c = rng.standard_normal((7, 38)).astype(np.float32)
        d = rng.standard_normal((12, 3)).astype(np.float32)
        for got_a, got_b, want_a, want_b in (
            (h[:, 3:9].T, b, a[:, 3:9].T, b),
            (h[:, :9].T, b, a[:, :9].T, b),
            (c, h[2:, :], c, a[2:, :]),
            (h[4:], d, a[4:], d),
            (h[:, :9][4:8].T, b[4:8], a[:, :9][4:8].T, b[4:8]),
            (h.T, b, a.T, b),
        ):
            ref = eng.gemm(want_a, want_b)
            assert np.array_equal(eng.gemm(got_a, got_b), ref)
            out = np.empty_like(ref)
            res = eng.gemm(got_a, got_b, out=out)
            assert res is out and np.array_equal(out, ref)


class TestCallerTagsKeepTheirBuffers:
    """A prepared operand's arena buffers are its own, whatever its tag:
    an unprepared product through the same arena writes elsewhere."""

    @pytest.mark.parametrize("precision", TC)
    @pytest.mark.parametrize("tag", ["a", "b"])
    @pytest.mark.parametrize("m,k,n", [(96, 64, 16), (768, 768, 32)])
    def test_unprepared_product_leaves_the_handle_intact(self, rng, precision,
                                                         tag, m, k, n):
        a, d = (rng.standard_normal((m, k)).astype(np.float32) for _ in "ad")
        b, c = (rng.standard_normal((k, n)).astype(np.float32) for _ in "bc")
        want = make_engine(precision).gemm(a, b).tobytes()
        eng = make_engine(precision, workspace=Workspace())
        if tag == "a":
            h = eng.prepare_operand(a, tag=tag)
            eng.gemm(d, b)  # transforms an unprepared A per launch
            got = eng.gemm(h, b)
        else:
            h = eng.prepare_operand(b, tag=tag)
            eng.gemm(a, c)  # transforms an unprepared B per launch
            got = eng.gemm(a, h)
        assert got.tobytes() == want


class TestStackedHandle:
    @pytest.mark.parametrize("workspace", [False, True], ids=["bare", "arena"])
    @pytest.mark.parametrize("precision", TC)
    def test_one_refresh_serves_every_matrix(self, rng, precision, workspace):
        # SBR's W/Y pair: a (2, M, N) buffer grown column block by column
        # block.  One refresh of h[:, :, k0:k1] leaves each h[j] bitwise
        # what the array gives, in the views SBR multiplies, with no
        # per-launch copy of a transposed view.
        ws = Workspace() if workspace else None
        eng = make_engine(precision, workspace=ws)
        buf = np.zeros((2, 40, 12), np.float32)
        buf[:, :, :5] = rng.standard_normal((2, 40, 5))
        h = eng.prepare_operand(buf, tag="wy", cols=5)
        buf[:, :, 5:] = rng.standard_normal((2, 40, 7))
        eng.prepare_operand(h[:, :, 5:], tag="t")
        b = rng.standard_normal((40, 3)).astype(np.float32)
        c = rng.standard_normal((7, 40)).astype(np.float32)
        d = rng.standard_normal((12, 3)).astype(np.float32)
        # The unprepared launch, through an arena too: the EC split is
        # row-major only through one.
        ref = make_engine(precision, workspace=Workspace() if workspace else None)
        for j in range(2):
            hj, aj = h[j], buf[j]
            for got_a, got_b, want_a, want_b in (
                (hj[:, :9].T, b, aj[:, :9].T, b),
                (hj[:, 3:12].T, b, aj[:, 3:12].T, b),
                (c, hj[:, 2:10], c, aj[:, 2:10]),
                (hj[4:], d, aj[4:], d),
            ):
                assert np.array_equal(eng.gemm(got_a, got_b),
                                      ref.gemm(want_a, want_b))
        if ws is not None:
            assert not [t for t in ws.stats()["by_tag"] if "_copy_" in t]


class TestNoPerLaunchWork:
    def test_sbr_handles_are_never_copied(self):
        # A transposed view of a handle without a twin is copied to
        # row-major per launch, under its own arena tags.  SBR's handles
        # are multiplied only in views that need no copy.
        res = sbr_wy(_sym(288), 16, 64, engine=make_engine("fp16_ec_tc"))
        tags = res.workspace.stats()["by_tag"]
        assert "prep:ec_sbr_WY_hi_t" in tags
        assert not [t for t in tags if "_copy_" in t]

    def test_copy_tags_count_a_copy(self, rng):
        # The positive control of the pin above.
        ws = Workspace()
        eng = make_engine("fp16_ec_tc", workspace=ws)
        a = rng.standard_normal((16, 8)).astype(np.float32)
        b = rng.standard_normal((16, 3)).astype(np.float32)
        eng.gemm(eng.prepare_operand(a, tag="g", cols=8).T, b)
        assert not [t for t in ws.stats()["by_tag"] if "_copy_" in t]
        eng.gemm(eng.prepare_operand(a, tag="w").T, b)
        assert {"ec_a_copy_hi", "ec_a_copy_lo"} <= set(ws.stats()["by_tag"])

    @pytest.mark.parametrize("n,b,nb,elems", [(96, 8, 32, 88768),
                                              (288, 16, 64, 986112)])
    def test_split_elements_are_unchanged(self, n, b, nb, elems):
        # The number of elements split per call, pinned from the
        # per-launch-copy layout: twins move splits, they add none.
        with obs.collect() as session, obs.span("t"):
            sbr_wy(_sym(n), b, nb, engine=make_engine("fp16_ec_tc"))
        got = sum(sp.counters.get("ec_split_elems", 0) for sp in session.spans)
        assert got == elems


class TestCallScopedArena:
    def test_result_retains_only_band_and_blocks(self):
        a = _sym(512)
        sbr_wy(a[:64, :64], 8, 32, engine=make_engine("fp16_ec_tc"), want_q=False)
        gc.collect()
        tracemalloc.start()
        try:
            res = sbr_wy(a, 32, 128, engine=make_engine("fp16_ec_tc"), want_q=False)
            gc.collect()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = res.band.nbytes + sum(k.w.nbytes + k.y.nbytes for k in res.blocks)
        assert held <= 1.1 * kept < peak

    def test_reused_engine_counts_each_call_on_its_own_arena(self):
        eng = EcTensorCoreEngine()
        a = _sym(96)
        r1 = sbr_wy(a, 8, 32, engine=eng)
        s1 = r1.workspace.stats()
        assert eng.workspace is None
        r2 = sbr_wy(a, 8, 32, engine=eng)
        fresh = sbr_wy(a, 8, 32, engine=EcTensorCoreEngine())
        assert r1.workspace.stats() == s1
        assert r2.workspace.stats() == s1 == fresh.workspace.stats()
        assert eng.workspace is None
        np.testing.assert_array_equal(r2.band, fresh.band)

    def test_own_arena_is_emptied_and_a_passed_one_kept(self):
        a = _sym(96)
        res = sbr_wy(a, 8, 32, engine=make_engine("fp16_ec_tc"))
        before = res.workspace.stats()["misses"]
        res.workspace.take("sbr_OA", (80, 80), np.float32)
        assert res.workspace.stats()["misses"] == before + 1  # freed

        ws = Workspace()
        eng = make_engine("fp16_ec_tc", workspace=ws)
        sbr_wy(a, 8, 32, engine=eng, workspace=ws)
        misses = ws.misses
        sbr_wy(a, 8, 32, engine=eng, workspace=ws)
        assert ws.misses == misses  # every buffer was still there
        assert eng.workspace is ws

    def test_engine_loses_the_loan_when_the_call_fails(self):
        from repro.errors import ShapeError

        eng = make_engine("fp16_ec_tc")
        bad = _sym(96)
        bad[3, 4] = np.nan
        with pytest.raises(ShapeError):
            sbr_wy(bad, 8, 32, engine=eng)
        assert eng.workspace is None


class TestExactlySymmetricBand:
    @pytest.mark.parametrize("scenario", ["plain", "escalated", "resumed"])
    @pytest.mark.parametrize("precision", ["fp64", "fp32", *TC])
    def test_band_equals_its_transpose(self, precision, scenario, tmp_path):
        for n, b, nb in SHAPES[:2]:
            res, _ = _run(precision, n, b, nb, scenario, str(tmp_path / f"{n}"))
            assert np.array_equal(res.band, res.band.T)
