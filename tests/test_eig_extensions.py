"""Tests for the eigensolver extensions: inverse iteration, the syr2k
engine path, the blocked bulge chase and selected eigenpairs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eig import (
    eigvals_bisect,
    tridiag_inverse_iteration,
)
from repro.errors import ConfigurationError, ShapeError
from repro.gemm import Fp64Engine, SgemmEngine, TensorCoreEngine
from repro.gemm.trace import GemmRecord
from repro.la import extract_band, tridiag_to_dense
from repro.sbr import sbr_zy
from tests.conftest import eig_banded_spectrum, random_symmetric


class TestInverseIteration:
    def test_full_spectrum(self, rng):
        d = rng.standard_normal(60)
        e = rng.standard_normal(59)
        lam = eigvals_bisect(d, e)
        v = tridiag_inverse_iteration(d, e, lam)
        t = tridiag_to_dense(d, e)
        assert float(np.abs(t @ v - v * lam).max()) < 1e-10
        np.testing.assert_allclose(v.T @ v, np.eye(60), atol=1e-8)

    def test_selected_eigenpairs(self, rng):
        d = rng.standard_normal(50)
        e = rng.standard_normal(49)
        lam = eigvals_bisect(d, e, select=(10, 15))
        v = tridiag_inverse_iteration(d, e, lam)
        assert v.shape == (50, 5)
        t = tridiag_to_dense(d, e)
        assert float(np.abs(t @ v - v * lam).max()) < 1e-10

    def test_clustered(self, rng):
        d = np.ones(30)
        e = 1e-9 * rng.standard_normal(29)
        lam = eigvals_bisect(d, e)
        v = tridiag_inverse_iteration(d, e, lam)
        np.testing.assert_allclose(v.T @ v, np.eye(30), atol=1e-10)

    def test_glued_wilkinson(self, rng):
        d = np.tile(np.abs(np.arange(-5, 6)), 4)[:40].astype(float)
        e = np.ones(39)
        lam = eigvals_bisect(d, e)
        v = tridiag_inverse_iteration(d, e, lam)
        t = tridiag_to_dense(d, e)
        assert float(np.abs(t @ v - v * lam).max()) < 1e-9
        np.testing.assert_allclose(v.T @ v, np.eye(40), atol=1e-8)

    def test_shape_checks(self, rng):
        with pytest.raises(ShapeError):
            tridiag_inverse_iteration(np.ones(4), np.ones(4), [1.0])


class TestSyr2k:
    def test_numeric_equivalence(self, rng):
        y = rng.standard_normal((12, 4))
        z = rng.standard_normal((12, 4))
        out = Fp64Engine().syr2k(y, z)
        np.testing.assert_allclose(out, y @ z.T + z @ y.T, atol=1e-13)
        np.testing.assert_array_equal(out, out.T)

    def test_recorded_as_single_syr2k(self, rng):
        eng = SgemmEngine(record=True)
        eng.syr2k(rng.standard_normal((8, 3)), rng.standard_normal((8, 3)), tag="t")
        assert len(eng.trace) == 1
        rec = eng.trace[0]
        assert rec.op == "syr2k" and rec.shape == (8, 8, 3)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            GemmRecord(4, 5, 2, op="syr2k")  # non-square output
        with pytest.raises(ValueError):
            GemmRecord(4, 4, 2, op="trmm")

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            SgemmEngine().syr2k(rng.standard_normal((8, 3)), rng.standard_normal((7, 3)))

    def test_sbr_zy_with_syr2k_matches(self, rng):
        a = random_symmetric(64, rng)
        res_g = sbr_zy(a, 8, engine=Fp64Engine(), want_q=True)
        res_s = sbr_zy(a, 8, engine=Fp64Engine(), want_q=True, use_syr2k=True)
        np.testing.assert_allclose(res_g.band, res_s.band, atol=1e-11)

    def test_sbr_zy_syr2k_trace(self, rng):
        from repro.gemm.symbolic import is_algorithm_tag, trace_sbr_zy

        a = random_symmetric(48, rng)
        eng = Fp64Engine(record=True)
        sbr_zy(a, 8, engine=eng, want_q=False, use_syr2k=True)
        rec = eng.trace.filter(lambda r: is_algorithm_tag(r.tag))
        sym = trace_sbr_zy(48, 8, want_q=False, use_syr2k=True)
        assert rec.shape_multiset_by_tag() == sym.shape_multiset_by_tag()
        assert any(r.op == "syr2k" for r in rec)

    def test_tc_engine_syr2k_precision(self, rng):
        y = rng.standard_normal((16, 4)).astype(np.float32)
        z = rng.standard_normal((16, 4)).astype(np.float32)
        exact = y.astype(np.float64) @ z.T.astype(np.float64)
        exact = exact + exact.T
        err = np.abs(TensorCoreEngine().syr2k(y, z) - exact).max()
        assert 1e-7 < err < 1e-1  # fp16-grade

    def test_model_prices_syr2k_cheaper_than_two_gemms(self):
        from repro.device import PerfModel

        pm = PerfModel()
        two = 2 * pm.gemm_time(8192, 8192, 128, "tc")
        one = pm.syr2k_time(8192, 128, "tc")
        assert one < two


class TestBlockedBulgeChase:
    """The one stage-2 chase (blocked WY hops) against LAPACK and Givens."""

    @pytest.mark.parametrize(
        "n,b", [(10, 3), (40, 5), (64, 8), (33, 7), (12, 11), (50, 2), (65, 16), (9, 8)]
    )
    def test_similarity_and_orthogonality(self, rng, n, b):
        from repro.eig import bulge_chase
        from repro.la import tridiag_to_dense

        ab = extract_band(random_symmetric(n, rng), b)
        d, e, q = bulge_chase(ab, b, want_q=True)
        t = tridiag_to_dense(d, e)
        np.testing.assert_allclose(q @ t @ q.T, ab, atol=1e-12)
        np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(t), eig_banded_spectrum(ab, b), atol=1e-11
        )

    def test_matches_givens_spectrum(self, rng):
        # The chase agrees with LAPACK's own Givens band chase (?sbevd,
        # through eig_banded).
        from repro.eig import bulge_chase
        from repro.la import tridiag_to_dense

        ab = extract_band(random_symmetric(72, rng), 9)
        d, e, _ = bulge_chase(ab, 9, want_q=False)
        lam = np.linalg.eigvalsh(tridiag_to_dense(d, e))
        np.testing.assert_allclose(lam, eig_banded_spectrum(ab, 9), atol=1e-11)

    def test_bandwidth_one_passthrough(self, rng):
        from repro.eig import bulge_chase

        t_in = extract_band(random_symmetric(12, rng), 1)
        d, e, q = bulge_chase(t_in, 1)
        np.testing.assert_array_equal(d, np.diagonal(t_in))
        np.testing.assert_array_equal(q, np.eye(12))

    def test_no_q(self, rng):
        from repro.eig import bulge_chase

        _, _, q = bulge_chase(extract_band(random_symmetric(24, rng), 4), 4,
                              want_q=False)
        assert q is None


class TestSyevdSelected:
    def test_index_selection(self, rng):
        from repro.eig import syevd_selected
        from repro.matrices import generate_symmetric

        a, lam_true = generate_symmetric(96, distribution="arith", cond=100, rng=rng)
        res = syevd_selected(a, select=(90, 96), b=8, nb=32, precision="fp64")
        np.testing.assert_allclose(res.eigenvalues, lam_true[90:96], atol=1e-9)
        x = res.eigenvectors
        np.testing.assert_allclose(a @ x, x * res.eigenvalues, atol=1e-8)
        np.testing.assert_allclose(x.T @ x, np.eye(6), atol=1e-8)

    def test_interval_selection(self, rng):
        from repro.eig import syevd_selected
        from repro.matrices import generate_symmetric

        a, lam_true = generate_symmetric(64, distribution="uniform", rng=rng)
        res = syevd_selected(a, interval=(0.0, 0.5), b=8, nb=16, precision="fp64")
        expected = lam_true[(lam_true > 0.0) & (lam_true <= 0.5)]
        np.testing.assert_allclose(np.sort(res.eigenvalues), np.sort(expected), atol=1e-9)

    def test_values_only(self, rng):
        from repro.eig import syevd_selected

        a = random_symmetric(48, rng)
        res = syevd_selected(a, select=(0, 5), b=4, nb=16, want_vectors=False)
        assert res.eigenvectors is None
        assert res.eigenvalues.shape == (5,)

    def test_reversed_interval_names_interval(self, rng):
        from repro.eig import syevd_selected

        a = random_symmetric(96, rng)
        with pytest.raises(ShapeError, match=r"interval.*\(5, -5\)") as info:
            syevd_selected(a, interval=(5, -5), b=8, nb=16, precision="fp64")
        assert "select" not in str(info.value)

    def test_empty_interval(self, rng):
        from repro.eig import syevd_selected

        a = random_symmetric(32, rng)
        res = syevd_selected(a, interval=(1e6, 1e7), b=4, nb=8, precision="fp64")
        assert res.eigenvalues.size == 0
        assert res.eigenvectors.shape == (32, 0)

    def test_tc_precision_selected(self, rng):
        from repro.eig import syevd_selected
        from repro.matrices import generate_symmetric

        a, lam_true = generate_symmetric(96, distribution="geo", cond=1e3, rng=rng)
        res = syevd_selected(a, select=(0, 10), b=8, nb=32, precision="fp16_tc")
        assert np.abs(res.eigenvalues - lam_true[:10]).max() < 5e-3

    def test_matches_full_solver(self, rng):
        from repro.eig import syevd_2stage, syevd_selected

        a = random_symmetric(64, rng)
        full = syevd_2stage(a, b=8, nb=16, precision="fp64", want_vectors=False)
        sel = syevd_selected(a, select=(20, 30), b=8, nb=16, precision="fp64",
                             want_vectors=False)
        np.testing.assert_allclose(sel.eigenvalues, full.eigenvalues[20:30], atol=1e-9)

    def test_bad_method(self, rng):
        from repro.errors import ConfigurationError
        from repro.eig import syevd_selected

        with pytest.raises(ConfigurationError):
            syevd_selected(random_symmetric(16, rng), b=4, method="xy")
