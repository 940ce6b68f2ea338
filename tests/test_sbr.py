"""Tests for the band-reduction drivers (ZY, WY) and their shared panel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError, NotSymmetricError, NumericalBreakdownError, ShapeError,
)
from repro.gemm import Fp64Engine, SgemmEngine, TensorCoreEngine, EcTensorCoreEngine
from repro.la import bandwidth_of, reconstruct_wy, tsqr, wy_matrix
from repro.la.tsqr import leaf_bounds
from repro.metrics import backward_error, orthogonality_error
from repro.precision import FP16_EPS
from repro.sbr import factor_panel, panel as panel_mod, sbr_wy, sbr_zy
from tests.conftest import eig_banded_spectrum, random_symmetric


class TestFactorPanel:
    @staticmethod
    def _factor(a, b, width):
        A = a.copy()
        pf = factor_panel(A, 0, b, width, engine=Fp64Engine())
        return A, pf

    @pytest.mark.parametrize("n,b,width", [(48, 8, 8), (32, 16, 16), (29, 4, 4), (12, 8, 4)])
    def test_factorization_identity(self, rng, n, b, width):
        a = random_symmetric(n, rng)
        A, pf = self._factor(a, b, width)
        panel = a[b:, :width]
        m = n - b
        q_full = wy_matrix(pf.w, pf.y)
        np.testing.assert_allclose(q_full[:, :width] @ pf.r, panel, atol=1e-10)
        np.testing.assert_allclose(q_full.T @ q_full, np.eye(m), atol=1e-10)
        # R lands in the band, the annihilated rows are zero, and the
        # panel is mirrored.
        np.testing.assert_array_equal(A[b : b + width, :width], pf.r)
        np.testing.assert_array_equal(A[b + width :, :width], 0)
        np.testing.assert_array_equal(A[:width, b:], A[b:, :width].T)

    def test_r_upper_triangular(self, rng):
        _, pf = self._factor(random_symmetric(36, rng), 6, 6)
        np.testing.assert_allclose(np.tril(pf.r, -1), 0, atol=1e-12)

    def test_rejects_wide_panel(self, rng):
        with pytest.raises(ShapeError):
            self._factor(random_symmetric(12, rng), 8, 8)

    @pytest.mark.parametrize("dtype,engine", [(np.float32, SgemmEngine),
                                              (np.float64, Fp64Engine)])
    @pytest.mark.parametrize("m,k", [(8, 8), (9, 8), (120, 8), (352, 32)])
    def test_one_leaf_matches_tsqr_reconstruct(self, rng, dtype, engine, m, k):
        # A one-leaf panel takes geqrt's compact WY; TSQR + Algorithm 3
        # recovers the same reflectors from the explicit Q.
        assert len(leaf_bounds(m, k)) == 1
        A = random_symmetric(m + k, rng, dtype=dtype)
        panel = A[k:, :k].copy()
        pf = factor_panel(A, 0, k, k, engine=engine())
        q, r = tsqr(panel)
        w, y, s = reconstruct_wy(q)
        r = r * s[:, np.newaxis]
        eps = np.finfo(dtype).eps
        if m == k:
            # ?larfg leaves the last column unreflected (tau = 0), where
            # the reconstruction reflects it: the last W column is zero
            # and R's last row changes sign.
            np.testing.assert_array_equal(pf.w[:, -1], 0)
            np.testing.assert_allclose(np.abs(pf.r[-1]), np.abs(r[-1]),
                                       rtol=0, atol=8 * eps * np.abs(r).max())
            w, pf_w, r, pf_r = w[:, :-1], pf.w[:, :-1], r[:-1], pf.r[:-1]
        else:
            pf_w, pf_r = pf.w, pf.r
        assert pf.y.dtype == pf.w.dtype == pf.r.dtype == dtype
        np.testing.assert_allclose(pf.y, y, rtol=0, atol=8 * eps)
        np.testing.assert_allclose(pf_w, w, rtol=0, atol=8 * eps)
        np.testing.assert_allclose(pf_r, r, rtol=0, atol=8 * eps * np.abs(r).max())

    def test_one_leaf_nonfinite_panel_raises(self, rng):
        A = random_symmetric(48, rng)
        A[20, 3] = A[3, 20] = np.nan
        with pytest.raises(NumericalBreakdownError) as ei:
            self._factor(A, 8, 8)
        assert (ei.value.detector, ei.value.site) == ("nonfinite", "tsqr")

    @staticmethod
    def _count_reconstructions(monkeypatch, n, b, nb):
        calls = []

        def counted(q, **kw):
            calls.append(q.shape)
            return reconstruct_wy(q, **kw)

        monkeypatch.setattr(panel_mod, "reconstruct_wy", counted)
        sbr_wy(random_symmetric(n, np.random.default_rng(0)), b, nb, want_q=False)
        return calls

    def test_one_leaf_panels_skip_reconstruction(self, monkeypatch):
        assert self._count_reconstructions(monkeypatch, 384, 32, 128) == []

    def test_tree_panels_reconstruct(self, monkeypatch):
        n, b = 1024, 32
        split = [(n - i - b, b) for i in range(0, n - b - 1, b)
                 if len(leaf_bounds(n - i - b, min(b, n - i - b))) > 1]
        assert split  # the leaf rule splits the tallest panels
        assert self._count_reconstructions(monkeypatch, n, b, 256) == split


def _check_sbr(a, res, *, tol_back, tol_orth, tol_eig):
    n = a.shape[0]
    assert bandwidth_of(res.band, tol=tol_back * n * 10) <= res.bandwidth
    assert backward_error(a, res.q, res.band) < tol_back
    assert orthogonality_error(res.q) < tol_orth
    ev_ref = np.linalg.eigvalsh(a)
    ev = np.linalg.eigvalsh(np.asarray(res.band, dtype=np.float64))
    assert np.abs(ev - ev_ref).max() / max(np.abs(ev_ref).max(), 1.0) < tol_eig


class TestSbrZy:
    @pytest.mark.parametrize("n,b", [(32, 4), (64, 8), (65, 8), (96, 32), (50, 7), (20, 16)])
    def test_fp64_correct(self, rng, n, b):
        a = random_symmetric(n, rng)
        res = sbr_zy(a, b, engine=Fp64Engine(), want_q=True)
        _check_sbr(a, res, tol_back=1e-14, tol_orth=1e-13, tol_eig=1e-12)

    def test_band_is_exactly_banded(self, rng):
        a = random_symmetric(64, rng)
        res = sbr_zy(a, 8, engine=Fp64Engine(), want_q=False)
        assert bandwidth_of(res.band, tol=1e-12) <= 8

    def test_no_q_when_not_wanted(self, rng):
        res = sbr_zy(random_symmetric(32, rng), 8, want_q=False)
        assert res.q is None

    def test_blocks_recorded(self, rng):
        res = sbr_zy(random_symmetric(64, rng), 8, engine=Fp64Engine())
        assert len(res.blocks) == (64 - 8 - 2) // 8 + 1
        assert res.blocks[0].offset == 8

    def test_small_matrix_already_banded(self, rng):
        a = random_symmetric(8, rng)
        res = sbr_zy(a, 8, engine=Fp64Engine())
        np.testing.assert_allclose(res.band, a, atol=1e-12)
        np.testing.assert_allclose(res.q, np.eye(8), atol=1e-12)

    def test_rejects_asymmetric(self, rng):
        with pytest.raises(NotSymmetricError):
            sbr_zy(rng.standard_normal((16, 16)), 4)

    def test_rejects_bad_bandwidth(self, rng):
        with pytest.raises(ConfigurationError):
            sbr_zy(random_symmetric(8, rng), 16)

    def test_fp32_error_level(self, rng):
        a = random_symmetric(96, rng)
        res = sbr_zy(a, 8, engine=SgemmEngine(), want_q=True)
        _check_sbr(a, res, tol_back=1e-6, tol_orth=1e-5, tol_eig=1e-4)

    def test_runs_the_tsqr_panel(self, rng):
        # Both SBRs factor panels with the paper's TSQR + reconstruction.
        # n=720, b=40: the first panel spans two TSQR leaves (so the tree
        # issues GEMMs) and is wider than blocked QR's 32-column block
        # (which would issue qr_trailing GEMMs).
        eng = Fp64Engine(record=True)
        sbr_zy(random_symmetric(720, rng), 40, engine=eng, want_q=False)
        tags = set(eng.trace.tags())
        assert {"panel_tsqr", "panel_reconstruct"} <= tags
        assert "qr_trailing" not in tags


class TestSbrWy:
    @pytest.mark.parametrize(
        "n,b,nb",
        [(64, 8, 32), (96, 8, 32), (100, 8, 24), (128, 16, 64), (96, 16, 96), (48, 8, 8), (65, 4, 16)],
    )
    def test_fp64_correct(self, rng, n, b, nb):
        a = random_symmetric(n, rng)
        res = sbr_wy(a, b, nb, engine=Fp64Engine(), want_q=True)
        _check_sbr(a, res, tol_back=1e-13, tol_orth=1e-12, tol_eig=1e-11)

    def test_matches_zy_band_eigenvalues(self, rng):
        # Both algorithms produce bands orthogonally similar to A, hence
        # identical eigenvalues (up to fp64 rounding).
        a = random_symmetric(72, rng)
        band_wy = sbr_wy(a, 8, 24, engine=Fp64Engine(), want_q=False).band
        band_zy = sbr_zy(a, 8, engine=Fp64Engine(), want_q=False).band
        np.testing.assert_allclose(
            np.linalg.eigvalsh(band_wy), np.linalg.eigvalsh(band_zy), atol=1e-10
        )

    @pytest.mark.parametrize("q_method", ["tree", "forward"])
    def test_q_methods_equivalent(self, rng, q_method):
        a = random_symmetric(64, rng)
        res = sbr_wy(a, 8, 32, engine=Fp64Engine(), want_q=True, q_method=q_method)
        _check_sbr(a, res, tol_back=1e-13, tol_orth=1e-12, tol_eig=1e-11)

    def test_one_block_per_nb(self, rng):
        res = sbr_wy(random_symmetric(128, rng), 8, 32, engine=Fp64Engine())
        # Big blocks at j0 = 0, 32, 64, 96 -> trailing small; offsets +b.
        offsets = [blk.offset for blk in res.blocks]
        assert offsets == [8, 40, 72, 104]

    def test_nb_must_divide(self, rng):
        with pytest.raises(ConfigurationError):
            sbr_wy(random_symmetric(64, rng), 8, 20)

    def test_fp16_tc_error_at_machine_eps(self, rng):
        a = random_symmetric(96, rng)
        res = sbr_wy(a, 8, 32, engine=TensorCoreEngine(), want_q=True)
        eb = backward_error(a, res.q, res.band)
        eo = orthogonality_error(res.q)
        # Paper Table 3: both bounded by the TC machine epsilon (~5e-4).
        assert eb < FP16_EPS
        assert eo < FP16_EPS

    def test_ec_tc_recovers_fp32(self, rng):
        a = random_symmetric(96, rng)
        eb_tc = backward_error(a, *_qb(sbr_wy(a, 8, 32, engine=TensorCoreEngine(), want_q=True)))
        eb_ec = backward_error(a, *_qb(sbr_wy(a, 8, 32, engine=EcTensorCoreEngine(), want_q=True)))
        assert eb_ec < eb_tc / 50

    @pytest.mark.parametrize("precision,u,bound", [
        ("fp32", 2.0**-24, 4), ("fp16_ec_tc", 2.0**-24, 4), ("fp64", 2.0**-53, 256),
    ], ids=["fp32", "fp16_ec_tc", "fp64"])
    def test_band_eigenvalue_error_in_units_of_u(self, rng, precision, u, bound):
        # Pinned in units of the policy's u against LAPACK, not by band
        # hashes: the panel's LAPACK QR may change the band's bits, not
        # its accuracy (1.3-2.2 u for fp32/EC at this shape; fp64 sits
        # at the oracle's own ~50 u).
        from repro.gemm import make_engine

        a = random_symmetric(256, rng)
        band = sbr_wy(a, 16, 64, engine=make_engine(precision), want_q=False).band
        lam = eig_banded_spectrum(band.astype(np.float64), 16)
        err = np.abs(lam - np.linalg.eigvalsh(a)).max()
        assert err / (np.linalg.norm(a, 2) * u) < bound

    def test_band_dtype_follows_engine(self, rng):
        a = random_symmetric(32, rng)
        assert sbr_wy(a, 4, 8, engine=SgemmEngine()).band.dtype == np.float32
        assert sbr_wy(a, 4, 8, engine=Fp64Engine()).band.dtype == np.float64

    def test_input_not_mutated(self, rng):
        a = random_symmetric(48, rng)
        a_copy = a.copy()
        sbr_wy(a, 8, 16, engine=Fp64Engine())
        np.testing.assert_array_equal(a, a_copy)


class TestCachedSplits:
    """The block's prepared W/Y/OAW always hold the split of their columns.

    ``sbr_wy`` re-splits only the columns it writes (after form_w, after
    the OAW GEMM, and all live columns on a mid-block resume); after
    every panel step the cached hi/lo of the live columns must equal a
    fresh split of them.
    """

    @staticmethod
    def _watch(monkeypatch):
        import importlib

        from repro.precision.prepared import PreparedOperand
        from repro.precision.rounding import split_fp16

        wy = importlib.import_module("repro.sbr.wy")
        real = wy._panel_step
        engines = []

        def checked(A, OA, st, eng, *args, **kwargs):
            status = real(A, OA, st, eng, *args, **kwargs)
            for h, buf in ((st.hw, st.w), (st.hy, st.y), (st.hoaw, st.oaw)):
                assert isinstance(h, PreparedOperand) and h.fmt == "ec"
                hi, lo = split_fp16(buf[:, : st.k])
                lo *= np.float32(2.0**-11)  # a handle stores lo descaled
                np.testing.assert_array_equal(h.hi[:, : st.k], hi)
                np.testing.assert_array_equal(h.lo[:, : st.k], lo)
                if h is st.hoaw:
                    # Nothing multiplies OAW^T: it has no twins.
                    assert h.hi_t is None and h.lo_t is None
                    continue
                # The transposed twins hold the same split.
                np.testing.assert_array_equal(h.hi_t[: st.k], hi.T)
                np.testing.assert_array_equal(h.lo_t[: st.k], lo.T)
            engines.append(eng.name)
            return status

        monkeypatch.setattr(wy, "_panel_step", checked)
        return engines

    def test_plain_run(self, rng, monkeypatch):
        engines = self._watch(monkeypatch)
        sbr_wy(random_symmetric(96, rng), 8, 32, engine=EcTensorCoreEngine())
        assert len(engines) == 11 and set(engines) == {"ectc"}

    def test_escalated_panel_then_restored_ec(self, rng, monkeypatch):
        # A NaN in panel 1's partial update escalates that panel to
        # tf32; the non-sticky ladder restores EC for panel 2, which
        # multiplies the handles the escalated engine refreshed.
        from repro.resilience import (
            EscalationLadder, FaultInjector, FaultSpec, ResilienceContext,
        )

        engines = self._watch(monkeypatch)
        ctx = ResilienceContext(
            ladder=EscalationLadder(sticky=False),
            injector=FaultInjector(FaultSpec(site="wy_right", kind="nan", call_index=1)),
        )
        a = random_symmetric(96, rng)
        res = sbr_wy(a, 8, 32, engine=EcTensorCoreEngine(), resilience=ctx)
        assert len(ctx.report.escalations) == 1
        assert engines[:3] == ["ectc", "tc", "ectc"]
        assert set(engines[3:]) == {"ectc"}
        lam = np.linalg.eigvalsh(a)
        # One panel ran at TF32 (u = 2^-11).
        np.testing.assert_allclose(
            np.linalg.eigvalsh(res.band.astype(np.float64)), lam,
            atol=1e-2 * np.abs(lam).max(),
        )

    def test_mid_block_resume(self, rng, monkeypatch, tmp_path):
        from repro.ckpt import CheckpointConfig, CheckpointManager
        from repro.errors import SimulatedCrashError
        from repro.resilience.crash import CrashFaultSpec, CrashInjector

        a = random_symmetric(96, rng)
        clean = sbr_wy(a, 8, 32, engine=EcTensorCoreEngine(), want_q=False)
        run = str(tmp_path / "run")
        crash = CrashInjector(
            CrashFaultSpec(site="ckpt.save.sbr_panel.post", call_index=1))
        first = CheckpointManager(CheckpointConfig(run_dir=run, crash=crash))
        first.begin(a, {"driver": "t"})
        with pytest.raises(SimulatedCrashError):
            sbr_wy(a, 8, 32, engine=EcTensorCoreEngine(), want_q=False,
                   checkpoint=first)
        again = CheckpointManager(CheckpointConfig(run_dir=run))
        engines = self._watch(monkeypatch)
        res = sbr_wy(a, 8, 32, engine=EcTensorCoreEngine(), want_q=False,
                     checkpoint=again)
        assert again.report.resumed_from is not None
        assert len(engines) == 9  # resumed at panel 2, mid-block
        np.testing.assert_array_equal(res.band, clean.band)


def _qb(res):
    return res.q, res.band


class TestSbrResultContainer:
    def test_n_property(self, rng):
        res = sbr_zy(random_symmetric(24, rng), 4, engine=Fp64Engine())
        assert res.n == 24

    def test_wyblock_properties(self, rng):
        res = sbr_wy(random_symmetric(48, rng), 8, 16, engine=Fp64Engine())
        blk = res.blocks[0]
        assert blk.nrows == 48 - 8
        assert blk.ncols >= 8
