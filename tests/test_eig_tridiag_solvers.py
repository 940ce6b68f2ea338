"""Tests for the tridiagonal eigensolvers: QL, D&C, bisection, inverse iteration."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal

import repro.eig.dc as dc_mod
import repro.eig.inverse_iteration as inverse_iteration_mod
import repro.eig.qliter as qliter_mod
import repro.eig.sturm as sturm_mod
from repro.errors import ConvergenceError, ShapeError, ValidationError
from repro.eig import (
    eigvals_bisect,
    sturm_count,
    syevd_selected,
    tridiag_eig_dc,
    tridiag_eig_ql,
    tridiag_inverse_iteration,
)
from repro.la import tridiag_to_dense

from conftest import random_symmetric


def _random_tridiag(n, rng):
    return rng.standard_normal(n), rng.standard_normal(max(n - 1, 0))


def _tridiag_matvec(d, e, v):
    tv = d[:, None] * v
    tv[:-1] += e[:, None] * v[1:]
    tv[1:] += e[:, None] * v[:-1]
    return tv


def _check_solution(d, e, lam, v, *, atol=1e-12):
    t = tridiag_to_dense(d, e)
    ref = np.linalg.eigvalsh(t)
    np.testing.assert_allclose(lam, ref, atol=atol * 10 * max(1.0, np.abs(ref).max()))
    assert np.all(np.diff(lam) >= -1e-12)
    if v is not None:
        n = d.size
        np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-11)
        np.testing.assert_allclose(t @ v, v * lam, atol=1e-10 * max(1.0, np.abs(ref).max()))


class TestQL:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 64, 150])
    def test_random(self, rng, n):
        d, e = _random_tridiag(n, rng)
        lam, v = tridiag_eig_ql(d, e)
        _check_solution(d, e, lam, v)

    def test_values_only(self, rng):
        d, e = _random_tridiag(20, rng)
        lam, v = tridiag_eig_ql(d, e, want_vectors=False)
        assert v is None
        _check_solution(d, e, lam, None)

    def test_diagonal_input(self):
        lam, v = tridiag_eig_ql([3.0, 1.0, 2.0], [0.0, 0.0])
        np.testing.assert_array_equal(lam, [1, 2, 3])
        np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-15)

    def test_z0_premultiplication(self, rng):
        d, e = _random_tridiag(12, rng)
        z0 = rng.standard_normal((5, 12))
        lam, v0 = tridiag_eig_ql(d, e, z0=z0)
        _, v = tridiag_eig_ql(d, e)
        np.testing.assert_allclose(v0, z0 @ v, atol=1e-10)

    def test_z0_shape_check(self, rng):
        d, e = _random_tridiag(6, rng)
        with pytest.raises(ShapeError):
            tridiag_eig_ql(d, e, z0=np.eye(5))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tridiag_eig_ql([1.0, 2.0], [1.0, 2.0])

    def test_constant_diagonal(self, rng):
        # Known spectrum: d + 2 e cos(k pi / (n+1)).
        n = 50
        lam, _ = tridiag_eig_ql(np.full(n, 2.0), np.full(n - 1, -1.0), want_vectors=False)
        k = np.arange(1, n + 1)
        expected = 2.0 - 2.0 * np.cos(k * np.pi / (n + 1))
        np.testing.assert_allclose(np.sort(lam), np.sort(expected), atol=1e-12)


class TestDC:
    @pytest.mark.parametrize("n", [1, 2, 5, 31, 32, 33, 100, 257])
    def test_random(self, rng, n):
        d, e = _random_tridiag(n, rng)
        lam, v = tridiag_eig_dc(d, e)
        _check_solution(d, e, lam, v)

    def test_values_only(self, rng):
        d, e = _random_tridiag(64, rng)
        lam, v = tridiag_eig_dc(d, e, want_vectors=False)
        assert v is None
        _check_solution(d, e, lam, None)

    def test_zero_offdiagonal_split(self, rng):
        d, e = _random_tridiag(64, rng)
        e[31] = 0.0  # exactly at the tear point
        lam, v = tridiag_eig_dc(d, e)
        _check_solution(d, e, lam, v)

    def test_clustered_spectrum_deflation(self, rng):
        n = 120
        d = np.ones(n) + 1e-13 * rng.standard_normal(n)
        e = 1e-11 * rng.standard_normal(n - 1)
        lam, v = tridiag_eig_dc(d, e)
        _check_solution(d, e, lam, v)

    def test_wilkinson_glued(self, rng):
        n = 126
        d = np.tile(np.abs(np.arange(-10, 11)), 6).astype(float)
        e = np.ones(n - 1)
        lam, v = tridiag_eig_dc(d, e)
        _check_solution(d, e, lam, v)

    def test_negative_offdiagonals(self, rng):
        d = rng.standard_normal(40)
        e = -np.abs(rng.standard_normal(39))
        lam, v = tridiag_eig_dc(d, e)
        _check_solution(d, e, lam, v)

    def test_matches_ql(self, rng):
        d, e = _random_tridiag(80, rng)
        lam_dc, _ = tridiag_eig_dc(d, e, want_vectors=False)
        lam_ql, _ = tridiag_eig_ql(d, e, want_vectors=False)
        np.testing.assert_allclose(lam_dc, lam_ql, atol=1e-11)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tridiag_eig_dc([1.0], [1.0])

    def test_power_of_two_scaling_is_exact(self, rng):
        # The internal scaling to max|entry| in [1/2, 1) is a power of two,
        # so rescaling the input by one rescales the output bit for bit.
        d, e = _random_tridiag(100, rng)
        lam, v = tridiag_eig_dc(d, e)
        lam_s, v_s = tridiag_eig_dc(d * 2.0**40, e * 2.0**40)
        np.testing.assert_array_equal(lam_s, lam * 2.0**40)
        np.testing.assert_array_equal(v_s, v)


def _fail_if_called(*args, **kwargs):
    raise AssertionError("LAPACK was called on invalid input")


class TestDCChecks:
    """Input validation and LAPACK failure reporting in the D&C."""

    @pytest.mark.parametrize("want_vectors", [True, False])
    @pytest.mark.parametrize("where,value", [("d", np.inf), ("e", np.nan)])
    def test_nonfinite_names_global_index(self, rng, monkeypatch, want_vectors,
                                          where, value):
        monkeypatch.setattr(dc_mod, "_sterf", _fail_if_called)
        monkeypatch.setattr(dc_mod, "_stevd", _fail_if_called)
        d, e = _random_tridiag(40, rng)
        {"d": d, "e": e}[where][20] = value
        kind = "inf" if np.isinf(value) else "nan"
        with pytest.raises(ValidationError, match=rf"{kind} at \[20\]") as ei:
            tridiag_eig_dc(d, e, want_vectors=want_vectors)
        assert ei.value.field == "finite"
        assert ei.value.name == where

    @pytest.mark.parametrize("routine,want_vectors", [
        ("_sterf", False), ("_stevd", True),
    ])
    def test_lapack_info_raises_convergence_error(self, rng, monkeypatch,
                                                  routine, want_vectors):
        real = getattr(dc_mod, routine)

        def failing(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 3)

        monkeypatch.setattr(dc_mod, routine, failing)
        d, e = _random_tridiag(70, rng)
        with pytest.raises(ConvergenceError) as ei:
            tridiag_eig_dc(d, e, want_vectors=want_vectors)
        assert ei.value.phase == "tridiag_solve"
        assert ei.value.iterations == 3


# Matrix classes of the differential grid, each an (n -> (d, e)) builder.
def _grid_random(n, rng):
    return rng.standard_normal(n), rng.standard_normal(n - 1)


def _grid_zero_at_tear(n, rng):
    d, e = _grid_random(n, rng)
    if n > 1:
        e[n // 2 - 1] = 0.0  # the off-diagonal the top-level tear cuts
    return d, e


def _grid_zero_in_leaf(n, rng):
    d, e = _grid_random(n, rng)
    if n > 2:
        e[min(4, n - 2)] = 0.0  # inside the first leaf
    return d, e


def _grid_wilkinson(n, rng):
    return np.abs(np.arange(n) - (n - 1) / 2.0), np.ones(n - 1)


def _grid_glued_wilkinson(n, rng):
    k = min(n, 21)
    d = np.tile(np.abs(np.arange(k) - (k - 1) / 2.0), -(-n // k))[:n]
    e = np.ones(n - 1)
    e[k - 1 :: k] = 1e-10  # the glue between W21+ blocks
    return d, e


def _grid_constant(n, rng):
    return np.full(n, 2.0), np.full(n - 1, -1.0)


_GRID_CLASSES = {
    "random": _grid_random,
    "zero_at_tear": _grid_zero_at_tear,
    "zero_in_leaf": _grid_zero_in_leaf,
    "wilkinson": _grid_wilkinson,
    "glued_wilkinson": _grid_glued_wilkinson,
    "constant": _grid_constant,
}


class TestDCDifferential:
    """D&C against scipy ``eigh_tridiagonal`` across sizes, classes, scales.

    Sizes straddle ``stedc``'s direct-solve threshold (25) and its
    multiples; the scales push the entries toward under- and overflow.  Bounds are in units of
    ``n * eps``: eigenvalue error and residual relative to ``||T||_2``,
    orthogonality absolute.  The worst observed constant is about 1.
    """

    C = 8.0

    @pytest.mark.parametrize("want_vectors", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    @pytest.mark.parametrize("cls", sorted(_GRID_CLASSES))
    @pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 64, 65, 257])
    def test_matches_scipy(self, n, cls, scale, want_vectors):
        d, e = _GRID_CLASSES[cls](n, np.random.default_rng(n))
        d, e = d * scale, e * scale
        ref = eigh_tridiagonal(d, e, eigvals_only=True) if n > 1 else d
        tol = self.C * n * np.finfo(np.float64).eps
        tnorm = float(np.abs(ref).max())

        lam, v = tridiag_eig_dc(d, e, want_vectors=want_vectors)
        assert np.all(np.diff(lam) >= 0)
        assert np.abs(lam - ref).max() <= tol * tnorm
        if not want_vectors:
            assert v is None
            return
        assert np.abs(_tridiag_matvec(d, e, v) - v * lam).max() <= tol * tnorm
        assert np.abs(v.T @ v - np.eye(n)).max() <= tol


class TestSturm:
    def test_count_monotone(self, rng):
        d, e = _random_tridiag(30, rng)
        xs = np.linspace(-6, 6, 50)
        counts = sturm_count(d, e, xs)
        assert np.all(np.diff(counts) >= 0)
        assert counts[0] == 0 and counts[-1] == 30

    def test_count_matches_reference(self, rng):
        d, e = _random_tridiag(25, rng)
        ref = np.linalg.eigvalsh(tridiag_to_dense(d, e))
        for x in (-1.0, 0.0, 0.5, 2.0):
            assert int(sturm_count(d, e, x)) == int(np.sum(ref < x))

    def test_count_scalar_shape(self, rng):
        d, e = _random_tridiag(10, rng)
        assert np.ndim(sturm_count(d, e, 0.0)) == 0

    def test_bisect_all(self, rng):
        d, e = _random_tridiag(40, rng)
        lam = eigvals_bisect(d, e)
        ref = np.linalg.eigvalsh(tridiag_to_dense(d, e))
        np.testing.assert_allclose(lam, ref, atol=1e-10)

    def test_bisect_select_range(self, rng):
        d, e = _random_tridiag(30, rng)
        ref = np.linalg.eigvalsh(tridiag_to_dense(d, e))
        lam = eigvals_bisect(d, e, select=(5, 12))
        np.testing.assert_allclose(lam, ref[5:12], atol=1e-10)

    def test_bisect_interval(self, rng):
        d, e = _random_tridiag(30, rng)
        ref = np.linalg.eigvalsh(tridiag_to_dense(d, e))
        lam = eigvals_bisect(d, e, interval=(-0.5, 1.5))
        expected = ref[(ref > -0.5) & (ref <= 1.5)]
        np.testing.assert_allclose(lam, expected, atol=1e-9)

    def test_bisect_empty_selection(self, rng):
        d, e = _random_tridiag(10, rng)
        assert eigvals_bisect(d, e, select=(3, 3)).size == 0

    def test_bisect_select_and_interval_conflict(self, rng):
        d, e = _random_tridiag(10, rng)
        with pytest.raises(ShapeError):
            eigvals_bisect(d, e, select=(0, 2), interval=(0.0, 1.0))

    def test_bisect_out_of_range_select(self, rng):
        d, e = _random_tridiag(10, rng)
        with pytest.raises(ShapeError):
            eigvals_bisect(d, e, select=(0, 11))

    def test_bisect_matches_dc(self, rng):
        d, e = _random_tridiag(50, rng)
        lam_b = eigvals_bisect(d, e)
        lam_dc, _ = tridiag_eig_dc(d, e, want_vectors=False)
        np.testing.assert_allclose(lam_b, lam_dc, atol=1e-9)

    def test_single_element(self):
        np.testing.assert_allclose(eigvals_bisect([4.0], []), [4.0], atol=1e-12)

    def test_bisect_empty_matrix(self):
        assert eigvals_bisect([], []).size == 0

    @pytest.mark.parametrize("call", [
        lambda d, e: sturm_count(d, e, 0.0),
        lambda d, e: eigvals_bisect(d, e),
    ])
    @pytest.mark.parametrize("where,value", [("d", np.inf), ("e", np.nan)])
    def test_nonfinite_raises_validation_error(self, rng, call, where, value):
        d, e = _random_tridiag(12, rng)
        {"d": d, "e": e}[where][5] = value
        with pytest.raises(ValidationError) as ei:
            call(d, e)
        assert ei.value.field == "finite"
        assert ei.value.name == where


class TestScaleDifferential:
    """Bisection, inverse iteration and QL against scipy at range extremes.

    None of ``?stebz``, ``?stein`` or the Sturm recurrence scales its
    input, so these pin the power-of-two scaling in front of them.
    Bounds are in units of ``n * eps`` as in :class:`TestDCDifferential`.
    """

    C = 8.0

    @staticmethod
    def _case(n, scale):
        rng = np.random.default_rng(n)
        d, e = rng.standard_normal(n) * scale, rng.standard_normal(n - 1) * scale
        ref = eigh_tridiagonal(d, e, eigvals_only=True) if n > 1 else d.copy()
        tnorm = float(np.abs(ref).max())
        # Points strictly between consecutive eigenvalues, plus one on
        # either side of the spectrum.
        mids = np.concatenate(
            [[ref[0] - tnorm], (ref[1:] + ref[:-1]) / 2, [ref[-1] + tnorm]])
        return d, e, ref, tnorm, mids, n * np.finfo(np.float64).eps

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e160, 1e300])
    @pytest.mark.parametrize("n", [1, 2, 5, 33])
    def test_sturm_count(self, n, scale):
        d, e, _, _, mids, _ = self._case(n, scale)
        np.testing.assert_array_equal(sturm_count(d, e, mids), np.arange(n + 1))

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e160, 1e300])
    @pytest.mark.parametrize("n", [1, 2, 5, 33])
    def test_bisect(self, n, scale):
        d, e, ref, tnorm, mids, tol = self._case(n, scale)
        lo, hi = n // 3, n - n // 3
        by_index = eigvals_bisect(d, e, select=(lo, hi))
        by_value = eigvals_bisect(d, e, interval=(mids[lo], mids[hi]))
        for lam in (by_index, by_value):
            assert lam.shape == (hi - lo,)
            assert np.abs(lam - ref[lo:hi]).max() <= self.C * tol * tnorm

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e160, 1e300])
    @pytest.mark.parametrize("n", [1, 2, 5, 33])
    def test_inverse_iteration(self, n, scale):
        d, e, ref, tnorm, _, tol = self._case(n, scale)
        v = tridiag_inverse_iteration(d, e, ref)
        assert np.abs(_tridiag_matvec(d, e, v) - v * ref).max() <= self.C * tol * tnorm
        assert np.abs(v.T @ v - np.eye(n)).max() <= self.C * tol

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e160, 1e300])
    @pytest.mark.parametrize("n", [1, 2, 5, 33])
    def test_ql(self, n, scale):
        d, e, ref, tnorm, _, tol = self._case(n, scale)
        lam, v = tridiag_eig_ql(d, e)
        assert np.abs(lam - ref).max() <= self.C * tol * tnorm
        assert np.abs(_tridiag_matvec(d, e, v) - v * lam).max() <= self.C * tol * tnorm
        assert np.abs(v.T @ v - np.eye(n)).max() <= self.C * tol

    def test_inverse_iteration_shuffled_clusters(self):
        # Two clusters of ten eigenvalues ~1e-9 apart, passed in shuffled
        # order: each column must be the eigenvector of its own input
        # eigenvalue (a neighbour's leaves a residual of the gap, far
        # above the bound) and the columns orthonormal.
        n = 20
        d = np.repeat([1.0, 5.0], 10) + 1e-9 * np.tile(np.arange(10.0), 2)
        e = np.full(n - 1, 1e-10)
        lam = eigh_tridiagonal(d, e, eigvals_only=True)
        perm = np.random.default_rng(0).permutation(n)
        v = tridiag_inverse_iteration(d, e, lam[perm])
        tol = self.C * n * np.finfo(np.float64).eps
        assert np.abs(_tridiag_matvec(d, e, v) - v * lam[perm]).max() <= tol * 5.0
        assert np.abs(v.T @ v - np.eye(n)).max() <= tol

    @pytest.mark.parametrize("scale", [1e-300, 1e-150])
    def test_syevd_selected_fp64_tiny_norm(self, scale):
        # The fp64 bounds of TestSyevdSelected, relative to ||A||.
        a = random_symmetric(64, np.random.default_rng(0)) * scale
        res = syevd_selected(a, select=(10, 20), b=8, nb=32, precision="fp64")
        ref = eigh(a, eigvals_only=True)[10:20]
        x = res.eigenvectors
        assert np.abs(res.eigenvalues - ref).max() <= 1e-9 * scale
        assert np.abs(x.T @ x - np.eye(10)).max() <= 1e-8
        assert np.abs((a / scale) @ x - x * (res.eigenvalues / scale)).max() <= 1e-8


class TestLapackErrorPaths:
    """``info != 0`` from each LAPACK routine becomes a ConvergenceError."""

    @staticmethod
    def _failing(mod, name, monkeypatch, info=3):
        real = getattr(mod, name)

        def failing(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, info)

        monkeypatch.setattr(mod, name, failing)

    @pytest.mark.parametrize("kw", [{}, {"select": (2, 5)}, {"interval": (-1.0, 1.0)}])
    def test_stebz(self, rng, monkeypatch, kw):
        self._failing(sturm_mod, "_stebz", monkeypatch)
        d, e = _random_tridiag(20, rng)
        with pytest.raises(ConvergenceError) as ei:
            eigvals_bisect(d, e, **kw)
        assert ei.value.iterations == 3

    def test_stein(self, rng, monkeypatch):
        self._failing(inverse_iteration_mod, "_stein", monkeypatch)
        d, e = _random_tridiag(20, rng)
        lam = eigh_tridiagonal(d, e, eigvals_only=True)[:4]
        with pytest.raises(ConvergenceError) as ei:
            tridiag_inverse_iteration(d, e, lam)
        assert ei.value.iterations == 3
        assert ei.value.phase == "inverse_iteration"

    @pytest.mark.parametrize("want_vectors", [False, True])
    def test_stev(self, rng, monkeypatch, want_vectors):
        self._failing(qliter_mod, "_stev", monkeypatch)
        d, e = _random_tridiag(20, rng)
        with pytest.raises(ConvergenceError) as ei:
            tridiag_eig_ql(d, e, want_vectors=want_vectors)
        assert ei.value.iterations == 3
