"""Tests for the band-reduction drivers (ZY, WY) and their shared panel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotSymmetricError, ShapeError
from repro.gemm import Fp64Engine, SgemmEngine, TensorCoreEngine, EcTensorCoreEngine
from repro.la import bandwidth_of, wy_matrix
from repro.metrics import backward_error, orthogonality_error
from repro.precision import FP16_EPS
from repro.sbr import factor_panel, sbr_wy, sbr_zy
from tests.conftest import random_symmetric


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

    def test_band_dtype_follows_engine(self, rng):
        a = random_symmetric(32, rng)
        assert sbr_wy(a, 4, 8, engine=SgemmEngine()).band.dtype == np.float32
        assert sbr_wy(a, 4, 8, engine=Fp64Engine()).band.dtype == np.float64

    def test_input_not_mutated(self, rng):
        a = random_symmetric(48, rng)
        a_copy = a.copy()
        sbr_wy(a, 8, 16, engine=Fp64Engine())
        np.testing.assert_array_equal(a, a_copy)


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
