"""Tests for bulge chasing (band → tridiagonal) and direct tridiagonalization."""

from __future__ import annotations

import numpy as np
import pytest

from scipy.linalg import cython_lapack

import repro.eig.bulge as bulge_mod
import repro.eig.tridiag_direct as tridiag_mod
from repro.errors import ConfigurationError, NumericalBreakdownError, ShapeError
from repro.eig import bulge_chase, householder_tridiagonalize, tridiag_eig_dc
from repro.la import bandwidth_of, extract_band, tridiag_to_dense
from tests.conftest import eig_banded_spectrum, random_symmetric


class TestBulgeChase:
    @pytest.mark.parametrize(
        "n,b", [(8, 2), (24, 3), (40, 5), (64, 8), (33, 7), (12, 11), (30, 1), (5, 4), (3, 2)]
    )
    def test_similarity_and_orthogonality(self, rng, n, b):
        ab = extract_band(random_symmetric(n, rng), b)
        d, e, q = bulge_chase(ab, b, want_q=True)
        t = tridiag_to_dense(d, e)
        np.testing.assert_allclose(q @ t @ q.T, ab, atol=1e-12)
        np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-12)

    def test_eigenvalues_preserved(self, rng):
        ab = extract_band(random_symmetric(50, rng), 6)
        d, e, _ = bulge_chase(ab, 6, want_q=False)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(tridiag_to_dense(d, e)),
            np.linalg.eigvalsh(ab),
            atol=1e-11,
        )

    def test_bandwidth_one_passthrough(self, rng):
        t_in = extract_band(random_symmetric(12, rng), 1)
        d, e, q = bulge_chase(t_in, 1)
        np.testing.assert_array_equal(d, np.diagonal(t_in))
        np.testing.assert_array_equal(e, np.diagonal(t_in, -1))
        np.testing.assert_array_equal(q, np.eye(12))

    def test_no_q(self, rng):
        ab = extract_band(random_symmetric(16, rng), 3)
        _, _, q = bulge_chase(ab, 3, want_q=False)
        assert q is None

    def test_already_tridiagonal_band(self, rng):
        # A tridiagonal matrix declared with larger bandwidth must survive.
        t_in = extract_band(random_symmetric(20, rng), 1)
        d, e, q = bulge_chase(t_in, 5, want_q=True)
        np.testing.assert_allclose(
            q @ tridiag_to_dense(d, e) @ q.T, t_in, atol=1e-12
        )

    def test_rejects_bad_bandwidth(self, rng):
        with pytest.raises(ShapeError):
            bulge_chase(random_symmetric(8, rng), 0)

    def test_diagonal_input(self):
        a = np.diag([3.0, 1.0, 2.0])
        d, e, _ = bulge_chase(a, 2)
        np.testing.assert_array_equal(np.sort(d), [1, 2, 3])
        np.testing.assert_allclose(e, 0, atol=1e-15)

    def test_two_by_two(self, rng):
        a = random_symmetric(2, rng)
        d, e, q = bulge_chase(a, 1)
        np.testing.assert_allclose(q @ tridiag_to_dense(d, e) @ q.T, a, atol=1e-14)

    def test_float32_input(self, rng):
        ab = extract_band(random_symmetric(24, rng), 4).astype(np.float32)
        d, e, q = bulge_chase(ab, 4)
        assert d.dtype == np.float32
        np.testing.assert_allclose(
            q @ tridiag_to_dense(d, e) @ q.T, ab, atol=1e-4
        )


class TestLapackErrorPaths:
    def test_sbtrd_info_raises_breakdown(self, rng, monkeypatch):
        monkeypatch.setattr(bulge_mod, "_sbtrd",
                            lambda ab, want_q: (None, None, None, 3))
        ab = extract_band(random_symmetric(16, rng), 3)
        with pytest.raises(NumericalBreakdownError) as ei:
            bulge_chase(ab, 3)
        assert ei.value.detector == "lapack"
        assert ei.value.site == "bulge_chase"

    def test_wrong_capsule_signature_raises_configuration_error(
            self, rng, monkeypatch):
        # dgeqrf's capsule stands in for a dsbtrd whose C signature
        # changed under a different scipy.
        monkeypatch.setitem(cython_lapack.__pyx_capi__, "dsbtrd",
                            cython_lapack.__pyx_capi__["dgeqrf"])
        bulge_mod._sbtrd_routine.cache_clear()
        try:
            with pytest.raises(ConfigurationError, match="dsbtrd"):
                bulge_chase(extract_band(random_symmetric(16, rng), 3), 3)
        finally:
            monkeypatch.undo()
            bulge_mod._sbtrd_routine.cache_clear()


#: Band scales per precision: under- and overflow territory plus unit.
SCALES = {np.float64: (1e-300, 1.0, 1e300), np.float32: (1e-30, 1.0, 1e30)}
#: (eigenvalue, orthogonality, similarity) bounds per precision, relative
#: to the band scale — those of the tests above.
BOUNDS = {np.float64: (1e-11, 1e-12, 1e-12), np.float32: (1e-4, 1e-4, 1e-4)}


class TestStage2Differential:
    """``bulge_chase`` + ``tridiag_eig_dc`` against ``eig_banded``.

    Every n in [1, 3b] for each b, at the extremes of each precision's
    range and at unit scale, with and without the transform.
    """

    @pytest.mark.parametrize("want_q", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("scale_idx", [0, 1, 2])
    @pytest.mark.parametrize("b", [1, 2, 5, 16])
    def test_matches_eig_banded(self, b, scale_idx, dtype, want_q):
        scale = SCALES[dtype][scale_idx]
        tol, orth, sim = BOUNDS[dtype]
        rng = np.random.default_rng(b)
        for n in range(1, 3 * b + 1):
            unit = extract_band(random_symmetric(n, rng), b).astype(dtype)
            ab = unit * dtype(scale)
            d, e, q = bulge_chase(ab, b, want_q=want_q)
            assert d.dtype == dtype and e.shape == (n - 1,)
            lam, _ = tridiag_eig_dc(d, e, want_vectors=False)
            ref = eig_banded_spectrum(ab.astype(np.float64), b)
            assert np.abs(lam - ref).max() / scale <= tol, n
            if not want_q:
                assert q is None
                continue
            q64 = q.astype(np.float64)
            t = tridiag_to_dense(d, e).astype(np.float64) / scale
            assert np.abs(q64.T @ q64 - np.eye(n)).max() <= orth, n
            assert np.abs(q64 @ t @ q64.T - unit).max() <= sim, n


#: (n, b) on both sides of the routine choice: ``?sbtrd`` below
#: ``n * b = SYTRD_MIN_N_TIMES_B``, ``?sytrd`` + ``?orgqr`` from it.
ROUTE_SHAPES = [(96, 32), (255, 16), (64, 63), (128, 32), (256, 16), (160, 32)]


def _routes_run(monkeypatch):
    """Count the stage-2 routines ``bulge_chase`` calls."""
    ran = {"sbtrd": 0, "sytrd": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            ran[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(bulge_mod, "_sbtrd", spy("sbtrd", bulge_mod._sbtrd))
    monkeypatch.setattr(bulge_mod, "householder_tridiagonalize",
                        spy("sytrd", bulge_mod.householder_tridiagonalize))
    return ran


class TestStage2Routes:
    """Both stage-2 routines with ``Q``, either side of the rule."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n,b", ROUTE_SHAPES)
    def test_similarity_orthogonality_and_spectrum(self, monkeypatch, n, b, dtype):
        ran = _routes_run(monkeypatch)
        tol, orth, sim = BOUNDS[dtype]
        unit = extract_band(random_symmetric(n, np.random.default_rng(n + b)), b)
        # Entries outside the band are ignored by either routine.
        outside = np.triu(np.ones((n, n)), b + 1)
        ab = (unit + outside + outside.T).astype(dtype)
        d, e, q = bulge_chase(ab, b, want_q=True)
        wide = n * min(b, n - 1) >= bulge_mod.SYTRD_MIN_N_TIMES_B
        route = "sytrd" if wide else "sbtrd"
        assert ran == {"sbtrd": route == "sbtrd", "sytrd": route == "sytrd"}
        assert d.dtype == q.dtype == dtype
        q64, t = q.astype(np.float64), tridiag_to_dense(d, e).astype(np.float64)
        band = unit.astype(dtype).astype(np.float64)
        assert np.abs(q64.T @ q64 - np.eye(n)).max() <= orth
        assert np.abs(q64 @ t @ q64.T - band).max() <= sim
        lam, _ = tridiag_eig_dc(d, e, want_vectors=False)
        assert np.abs(lam - eig_banded_spectrum(band, b)).max() <= tol

    @pytest.mark.parametrize("n,b", ROUTE_SHAPES)
    def test_values_only_stays_on_sbtrd(self, monkeypatch, n, b):
        ran = _routes_run(monkeypatch)
        ab = extract_band(random_symmetric(n, np.random.default_rng(n)), b)
        d, e, q = bulge_chase(ab, b, want_q=False)
        assert q is None and ran == {"sbtrd": 1, "sytrd": 0}
        d_q, e_q, _ = bulge_chase(ab, b, want_q=True)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(tridiag_to_dense(d_q, e_q)),
            np.linalg.eigvalsh(tridiag_to_dense(d, e)), atol=1e-12)

    @pytest.mark.parametrize("routine", ["sytrd", "orgqr"])
    def test_lapack_info_raises_breakdown(self, rng, monkeypatch, routine):
        real = tridiag_mod.get_lapack_funcs

        def failing(names, arrays):
            funcs = list(real(names, arrays))
            i = names.index(routine)
            good = funcs[i]
            funcs[i] = lambda *a, **k: (*good(*a, **k)[:-1], -7)
            return funcs

        monkeypatch.setattr(tridiag_mod, "get_lapack_funcs", failing)
        ab = extract_band(random_symmetric(128, rng), 32)
        with pytest.raises(NumericalBreakdownError, match=routine) as ei:
            bulge_chase(ab, 32, want_q=True)
        assert ei.value.detector == "lapack"
        assert ei.value.site == "householder_tridiagonalize"


class TestHouseholderTridiagonalize:
    @pytest.mark.parametrize("n", [2, 3, 8, 33, 64])
    def test_similarity(self, rng, n):
        a = random_symmetric(n, rng)
        d, e, q = householder_tridiagonalize(a)
        t = tridiag_to_dense(d, e)
        np.testing.assert_allclose(q @ t @ q.T, a, atol=1e-12)
        np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-13)

    def test_result_is_tridiagonal_similar(self, rng):
        a = random_symmetric(20, rng)
        d, e, _ = householder_tridiagonalize(a, want_q=False)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(tridiag_to_dense(d, e))),
            np.sort(np.linalg.eigvalsh(a)),
            atol=1e-11,
        )

    def test_no_q(self, rng):
        _, _, q = householder_tridiagonalize(random_symmetric(10, rng), want_q=False)
        assert q is None

    def test_matches_bulge_chase_eigenvalues(self, rng):
        # One-stage and two-stage routes agree on the spectrum.
        a = random_symmetric(32, rng)
        d1, e1, _ = householder_tridiagonalize(a, want_q=False)
        from repro.gemm import Fp64Engine
        from repro.sbr import sbr_wy

        res = sbr_wy(a, 4, 8, engine=Fp64Engine(), want_q=False)
        d2, e2, _ = bulge_chase(res.band, 4, want_q=False)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(tridiag_to_dense(d1, e1)),
            np.linalg.eigvalsh(tridiag_to_dense(d2, e2)),
            atol=1e-10,
        )
