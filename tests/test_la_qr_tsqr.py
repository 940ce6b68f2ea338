"""Tests for Householder QR, blocked QR, TSQR, and WY reconstruction."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from repro.errors import NumericalBreakdownError, ShapeError, SingularMatrixError
from repro.gemm import Fp64Engine, SgemmEngine
from repro.la import (
    blocked_qr,
    build_wy,
    householder_qr,
    reconstruct_wy,
    tsqr,
    wy_matrix,
)
from tests.conftest import assert_orthonormal_columns, assert_upper_triangular


class TestHouseholderQR:
    @pytest.mark.parametrize("m,n", [(8, 8), (20, 5), (100, 3), (7, 1)])
    def test_factorization(self, rng, m, n):
        a = rng.standard_normal((m, n))
        v_cols, betas, r = householder_qr(a)
        w, y = build_wy(v_cols, betas)
        q_thin = wy_matrix(w, y)[:, :n]
        np.testing.assert_allclose(q_thin @ r, a, atol=1e-12)
        assert_upper_triangular(r)

    def test_v_unit_lower(self, rng):
        v_cols, _, _ = householder_qr(rng.standard_normal((10, 4)))
        for j in range(4):
            assert v_cols[j, j] == 1.0
            np.testing.assert_array_equal(v_cols[:j, j], 0)

    def test_rejects_wide(self, rng):
        with pytest.raises(ShapeError):
            householder_qr(rng.standard_normal((3, 5)))

    def test_rank_deficient_still_factors(self, rng):
        a = np.zeros((8, 3))
        a[:, 0] = rng.standard_normal(8)
        a[:, 1] = 2 * a[:, 0]
        v_cols, betas, r = householder_qr(a)
        w, y = build_wy(v_cols, betas)
        np.testing.assert_allclose(wy_matrix(w, y)[:, :3] @ r, a, atol=1e-12)


class TestBlockedQR:
    @pytest.mark.parametrize("block", [1, 2, 3, 8, 100])
    def test_matches_unblocked(self, rng, block):
        a = rng.standard_normal((24, 10))
        vu, bu, ru = householder_qr(a)
        vb, bb, rb = blocked_qr(a, block=block, engine=Fp64Engine())
        np.testing.assert_allclose(rb, ru, atol=1e-12)
        np.testing.assert_allclose(vb, vu, atol=1e-12)

    def test_records_trailing_gemms(self, rng):
        eng = Fp64Engine(record=True)
        blocked_qr(rng.standard_normal((32, 16)), block=8, engine=eng)
        tags = eng.trace.tags()
        assert tags["qr_trailing"] == 2 * 1  # hmm: panels with trailing: 1 per non-final panel

    def test_bad_block(self, rng):
        with pytest.raises(ShapeError):
            blocked_qr(rng.standard_normal((8, 4)), block=0)


class TestTSQR:
    @pytest.mark.parametrize("m,n,leaf", [(64, 8, None), (100, 5, 20), (33, 4, 8), (256, 16, 32), (16, 16, None)])
    def test_factorization(self, rng, m, n, leaf):
        a = rng.standard_normal((m, n))
        q, r = tsqr(a, leaf_rows=leaf, engine=Fp64Engine())
        np.testing.assert_allclose(q @ r, a, atol=1e-11)
        assert_orthonormal_columns(q, atol=1e-11)
        assert_upper_triangular(r)

    def test_single_leaf(self, rng):
        a = rng.standard_normal((10, 4))
        q, r = tsqr(a, leaf_rows=100, engine=Fp64Engine())
        np.testing.assert_allclose(q @ r, a, atol=1e-12)

    def test_r_matches_householder_up_to_signs(self, rng):
        a = rng.standard_normal((80, 6))
        _, r_tree = tsqr(a, leaf_rows=20, engine=Fp64Engine())
        _, _, r_flat = householder_qr(a)
        np.testing.assert_allclose(np.abs(r_tree), np.abs(r_flat), atol=1e-11)

    def test_rejects_wide(self, rng):
        with pytest.raises(ShapeError):
            tsqr(rng.standard_normal((3, 6)))

    def test_rejects_small_leaf(self, rng):
        with pytest.raises(ShapeError):
            tsqr(rng.standard_normal((20, 6)), leaf_rows=4)

    def test_records_merge_gemms(self, rng):
        eng = Fp64Engine(record=True)
        tsqr(rng.standard_normal((64, 4)), leaf_rows=16, engine=eng)
        assert eng.trace.tags()["tsqr"] > 0

    def test_float32_input(self, rng):
        a = rng.standard_normal((40, 6)).astype(np.float32)
        q, r = tsqr(a, engine=SgemmEngine())
        assert q.dtype == np.float32
        np.testing.assert_allclose(q @ r, a, atol=1e-4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_block_raises_breakdown(self, rng, bad):
        # LAPACK QR propagates NaN/Inf silently; the leaf reports it.
        a = rng.standard_normal((64, 4))
        a[37, 2] = bad
        with pytest.raises(NumericalBreakdownError) as ei:
            tsqr(a, leaf_rows=16)
        assert ei.value.detector == "nonfinite"

    @pytest.mark.parametrize("routine", ["geqrf", "orgqr"])
    def test_lapack_info_raises_breakdown(self, rng, monkeypatch, routine):
        import importlib

        mod = importlib.import_module("repro.la.tsqr")
        # A float64 block runs the double pair, resolved once at import.
        funcs = dict(zip(("geqrf", "orgqr"), mod._F64_QR))
        good = funcs[routine]
        funcs[routine] = lambda *a, **k: (*good(*a, **k)[:-1], -4)
        monkeypatch.setattr(mod, "_F64_QR", (funcs["geqrf"], funcs["orgqr"]))
        with pytest.raises(NumericalBreakdownError) as ei:
            tsqr(rng.standard_normal((32, 4)))
        assert ei.value.detector == "lapack" and ei.value.value == -4


class TestReconstructWY:
    @pytest.mark.parametrize("m,n", [(8, 8), (40, 6), (128, 16), (9, 2)])
    def test_reconstruction_exact(self, rng, m, n):
        a = rng.standard_normal((m, n))
        q, r = tsqr(a, engine=Fp64Engine())
        w, y, s = reconstruct_wy(q, engine=Fp64Engine())
        q_full = wy_matrix(w, y)
        # (I - W Y^T)[:, :n] == Q S
        np.testing.assert_allclose(q_full[:, :n], q * s, atol=1e-12)
        # Full matrix orthogonal.
        np.testing.assert_allclose(q_full.T @ q_full, np.eye(m), atol=1e-12)
        # And the original factorization is recovered with flipped R.
        np.testing.assert_allclose(q_full[:, :n] @ (s[:, None] * r), a, atol=1e-11)

    def test_y_unit_lower_trapezoidal(self, rng):
        q, _ = tsqr(rng.standard_normal((20, 5)), engine=Fp64Engine())
        _, y, _ = reconstruct_wy(q, engine=Fp64Engine())
        for j in range(5):
            assert y[j, j] == 1.0
            np.testing.assert_array_equal(y[:j, j], 0)

    def test_signs_are_unit(self, rng):
        q, _ = tsqr(rng.standard_normal((30, 4)), engine=Fp64Engine())
        _, _, s = reconstruct_wy(q, engine=Fp64Engine())
        np.testing.assert_array_equal(np.abs(s), 1)

    def test_static_sign_choice_would_fail(self, rng):
        # Regression guard for the on-the-fly sign choice: with enough
        # columns, at least one sign decision differs from sign(diag(Q)),
        # and the reconstruction stays exact anyway.
        a = rng.standard_normal((60, 12))
        q, _ = tsqr(a, engine=Fp64Engine())
        w, y, s = reconstruct_wy(q, engine=Fp64Engine())
        q_full = wy_matrix(w, y)
        assert np.abs(q_full[:, :12] - q * s).max() < 1e-12

    def test_rejects_wide(self, rng):
        with pytest.raises(ShapeError):
            reconstruct_wy(rng.standard_normal((3, 5)))

    def test_records_gemm(self, rng):
        q, _ = tsqr(rng.standard_normal((20, 4)), engine=Fp64Engine())
        eng = Fp64Engine(record=True)
        reconstruct_wy(q, engine=eng)
        assert eng.trace.tags()["reconstruct"] == 1


ORACLE_SHAPES = [(m, n) for n in (1, 2, 8, 32) for m in (n, n + 1, 4 * n)]


class TestReconstructOracle:
    """``reconstruct_wy`` against LAPACK's Householder QR of ``Q`` itself.

    ``?geqrf`` of an orthonormal ``Q`` returns ``R = diag(±1)`` and the
    reflectors ``V`` (unit lower trapezoidal), so the reconstruction's
    signs must be ``sign(diag(R))`` and its ``Y`` must be ``V``.
    """

    @staticmethod
    def _q(m, n, dtype, seed=0):
        a = np.random.default_rng(seed + 97 * m + n).standard_normal((m, n))
        return np.linalg.qr(a)[0].astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m,n", ORACLE_SHAPES)
    def test_signs_and_vectors_match_householder_qr(self, m, n, dtype):
        q = self._q(m, n, dtype)
        (h, _), r = scipy.linalg.qr(q, mode="raw")
        w, y, s = reconstruct_wy(q)
        assert w.dtype == y.dtype == s.dtype == np.dtype(dtype)
        signs = np.sign(np.diag(r))
        v = np.tril(h[:, :n], -1)
        v[np.arange(n), np.arange(n)] = 1
        if m == n:
            # The last reflector of a square QR has length one: ?larfg
            # applies none (tau = 0, R keeps the entry's own sign), while
            # the reconstruction always reflects, flipping that sign.
            signs[-1] = -signs[-1]
            v[:, -1] = np.eye(n)[:, -1]
        np.testing.assert_array_equal(s, signs)
        u = np.finfo(dtype).eps / 2
        assert np.abs(y - v).max() <= 16 * u

    @staticmethod
    def _column_loop(q):
        """The elimination over all m rows that the top-block LU replaced."""
        m, n = q.shape
        work = np.array(q, copy=True)
        s = np.empty(n, dtype=q.dtype)
        for j in range(n):
            d = work[j, j]
            s[j] = -1.0 if d >= 0 else 1.0
            work[j, j] = d - s[j]
            work[j + 1 :, j] /= work[j, j]
            work[j + 1 :, j + 1 :] -= np.multiply.outer(work[j + 1 :, j], work[j, j + 1 :])
        y = np.tril(work, -1)
        y[np.arange(n), np.arange(n)] = 1
        return y, s

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m,n", ORACLE_SHAPES)
    def test_matches_the_column_loop(self, m, n, dtype):
        # Same arithmetic on the top block (bitwise), one TRSM below it.
        q = self._q(m, n, dtype, seed=1)
        y_ref, s_ref = self._column_loop(q)
        _, y, s = reconstruct_wy(q)
        np.testing.assert_array_equal(s, s_ref)
        np.testing.assert_array_equal(y[:n], y_ref[:n])
        assert np.abs(y - y_ref).max() <= 16 * np.finfo(dtype).eps

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("j", [0, 3, 7])
    def test_nan_in_top_block_names_its_column(self, dtype, j):
        q = self._q(32, 8, dtype)
        q[j // 2, j] = np.nan  # on or above the diagonal of column j
        with pytest.raises(SingularMatrixError) as ei:
            reconstruct_wy(q)
        assert ei.value.column == j

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_below_top_block_does_not_raise(self, dtype):
        # Rows below the top block never reach a pivot: the NaN stays
        # in its row of Y for the resilience checks to see.
        q = self._q(32, 8, dtype)
        q[20, 3] = np.nan
        w, y, _ = reconstruct_wy(q)
        assert np.isfinite(y[:8]).all()
        assert np.isnan(y[20, 3:]).all() and np.isfinite(y[20, :3]).all()
        assert np.isfinite(np.delete(y, 20, axis=0)).all()
