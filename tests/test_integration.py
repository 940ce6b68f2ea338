"""Cross-module integration tests: the full paper pipeline end to end."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import eigh

from repro import (
    PerfModel,
    Precision,
    backward_error,
    bulge_chase,
    eigenvalue_error,
    generate_symmetric,
    make_engine,
    orthogonality_error,
    sbr_wy,
    sbr_zy,
    syevd_1stage,
    syevd_2stage,
    syevd_selected,
    tridiag_eig_dc,
)
from repro.la import tridiag_to_dense
from repro.matrices import TABLE_MATRIX_SPECS
from repro.matrices.generate import generate_from_spec
from repro.metrics import sbr_backward_error_bound, sbr_orthogonality_bound


class TestFullPipelinePrecisionLadder:
    """The paper's central numerical claim, end to end: error tracks the
    precision policy (fp64 ≈ exact, fp32/EC ≈ 1e-7, fp16-TC ≈ 1e-4)."""

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(42)
        a, lam = generate_symmetric(160, distribution="geo", cond=1e3, rng=rng)
        return a, lam

    @pytest.mark.parametrize(
        "precision,bound",
        [
            (Precision.FP64, 1e-13),
            (Precision.FP32, 1e-6),
            (Precision.FP16_EC_TC, 1e-6),
            (Precision.FP16_TC, 1e-3),
        ],
    )
    def test_eigenvalue_ladder(self, problem, precision, bound):
        a, lam_true = problem
        res = syevd_2stage(a, b=8, nb=32, precision=precision, want_vectors=False)
        assert eigenvalue_error(lam_true, res.eigenvalues) < bound

    def test_tc_strictly_worse_than_ec(self, problem):
        a, lam_true = problem
        e_tc = eigenvalue_error(
            lam_true,
            syevd_2stage(a, b=8, nb=32, precision="fp16_tc", want_vectors=False).eigenvalues,
        )
        e_ec = eigenvalue_error(
            lam_true,
            syevd_2stage(a, b=8, nb=32, precision="fp16_ec_tc", want_vectors=False).eigenvalues,
        )
        assert e_ec * 10 < e_tc


class TestStageChaining:
    def test_manual_pipeline_equals_driver(self, rng):
        a, _ = generate_symmetric(96, distribution="uniform", rng=rng)
        eng = make_engine("fp64")
        res_sbr = sbr_wy(a, 8, 32, engine=eng, want_q=True)
        d, e, q2 = bulge_chase(np.asarray(res_sbr.band, dtype=np.float64), 8, want_q=True)
        lam, v = tridiag_eig_dc(d, e)
        x = np.asarray(res_sbr.q, dtype=np.float64) @ (q2 @ v)

        driver = syevd_2stage(a, b=8, nb=32, precision="fp64")
        np.testing.assert_allclose(lam, driver.eigenvalues, atol=1e-12)
        np.testing.assert_allclose(np.abs(x.T @ driver.eigenvectors), np.eye(96), atol=1e-8)

    def test_wy_and_zy_pipelines_agree(self, rng):
        a, _ = generate_symmetric(80, distribution="normal", rng=rng)
        lam_wy = syevd_2stage(a, b=8, nb=16, method="wy", precision="fp64", want_vectors=False).eigenvalues
        lam_zy = syevd_2stage(a, b=8, method="zy", precision="fp64", want_vectors=False).eigenvalues
        np.testing.assert_allclose(lam_wy, lam_zy, atol=1e-11)

    def test_one_and_two_stage_agree(self, rng):
        a, _ = generate_symmetric(64, distribution="arith", cond=100, rng=rng)
        lam1 = syevd_1stage(a, want_vectors=False).eigenvalues
        lam2 = syevd_2stage(a, b=4, nb=16, precision="fp64", want_vectors=False).eigenvalues
        np.testing.assert_allclose(lam1, lam2, atol=1e-11)

    def test_intermediate_band_is_banded_and_similar(self, rng):
        from repro.la import bandwidth_of

        a, _ = generate_symmetric(72, distribution="geo", cond=10, rng=rng)
        res = syevd_2stage(a, b=8, nb=24, precision="fp64")
        assert bandwidth_of(res.sbr.band, tol=1e-10) <= 8
        np.testing.assert_allclose(
            np.linalg.eigvalsh(res.sbr.band), np.linalg.eigvalsh(a), atol=1e-10
        )
        t = tridiag_to_dense(*res.tridiagonal)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(t), np.linalg.eigvalsh(a), atol=1e-10
        )


class TestAllMatrixClasses:
    @pytest.mark.parametrize("spec", TABLE_MATRIX_SPECS, ids=lambda s: s.label)
    def test_tc_pipeline_on_every_table_class(self, spec):
        rng = np.random.default_rng(abs(hash(spec.label)) % 2**31)
        a, _ = generate_from_spec(spec, 96, rng=rng)
        d_ref = eigh(a, eigvals_only=True)
        res = syevd_2stage(a, b=8, nb=32, precision="fp16_tc", want_vectors=False)
        assert eigenvalue_error(d_ref, res.eigenvalues) < 5e-4

    @pytest.mark.parametrize("spec", TABLE_MATRIX_SPECS[:4], ids=lambda s: s.label)
    def test_sbr_accuracy_metrics(self, spec):
        rng = np.random.default_rng(7)
        a, _ = generate_from_spec(spec, 96, rng=rng)
        res = sbr_wy(a, 8, 32, engine=make_engine("fp16_tc"), want_q=True)
        assert backward_error(a, res.q, res.band) < 5e-4
        assert orthogonality_error(res.q) < 5e-4

    # Stages 2 and 3 run in fp64, so the pipeline's backward error is
    # stage 1's.  Hoffman–Wielandt bounds the paper's eigenvalue error E_s
    # (and a Weyl-paired subset of it) by that backward error, so the
    # stage-1 envelopes of repro.metrics.bounds cover every solver output.
    @pytest.mark.parametrize("precision", [p.value for p in Precision])
    @pytest.mark.parametrize("method", ["wy", "zy"])
    @pytest.mark.parametrize("spec", TABLE_MATRIX_SPECS, ids=lambda s: s.label)
    def test_evd_within_stage1_envelope(self, rng, spec, method, precision):
        n, b = 64, 8
        a, lam = generate_from_spec(spec, n, rng=rng)
        res = syevd_2stage(a, b=b, nb=16, method=method, precision=precision)
        x = res.eigenvectors
        bound = sbr_backward_error_bound(n, b, precision=precision)
        assert eigenvalue_error(lam, res.eigenvalues) <= bound
        residual = np.linalg.norm(a @ x - x * res.eigenvalues)
        assert residual / (n * np.linalg.norm(a)) <= bound
        assert orthogonality_error(x) <= sbr_orthogonality_bound(
            n, b, precision=precision)

    @pytest.mark.parametrize("precision", ["fp64", "fp16_tc"])
    @pytest.mark.parametrize("spec", TABLE_MATRIX_SPECS, ids=lambda s: s.label)
    def test_selected_middle_pairs_within_stage1_envelope(
            self, rng, spec, precision):
        # The middle of each spectrum holds the smallest-magnitude
        # eigenvalues, where the SVD_Cluster classes pile up, so inverse
        # iteration must keep the clustered vectors orthogonal.
        n, b = 64, 8
        lo, hi = n // 2 - 4, n // 2 + 4
        a, lam = generate_from_spec(spec, n, rng=rng)
        res = syevd_selected(a, select=(lo, hi), b=b, nb=16,
                             precision=precision)
        x = res.eigenvectors
        bound = sbr_backward_error_bound(n, b, precision=precision)
        err = np.linalg.norm(res.eigenvalues - lam[lo:hi])
        assert err / (n * np.linalg.norm(lam)) <= bound
        residual = np.linalg.norm(a @ x - x * res.eigenvalues)
        assert residual / (n * np.linalg.norm(a)) <= bound
        defect = np.linalg.norm(x.T @ x - np.eye(hi - lo))
        assert defect / n <= sbr_orthogonality_bound(n, b, precision=precision)


class TestTraceToModelPipeline:
    def test_recorded_trace_prices_like_symbolic(self, rng):
        """A numeric run's recorded GEMM stream and the symbolic stream give
        identical model times — the contract that lets the figures use
        symbolic traces at paper scale."""
        from repro.gemm.symbolic import is_algorithm_tag, trace_sbr_wy

        n, b, nb = 96, 8, 32
        a, _ = generate_symmetric(n, rng=rng)
        eng = make_engine("fp32", record=True)
        sbr_wy(a, b, nb, engine=eng, want_q=False)
        rec = eng.trace.filter(lambda r: is_algorithm_tag(r.tag))
        sym = trace_sbr_wy(n, b, nb, want_q=False, mirror=True)
        pm = PerfModel()
        assert pm.trace_time(rec, "tc") == pytest.approx(pm.trace_time(sym, "tc"))

    def test_evd_model_consistency_with_driver_shapes(self):
        pm = PerfModel()
        bd = pm.evd_time(8192, 128, 1024, variant="ours")
        assert bd.sbr > bd.transfer  # PCIe is not the bottleneck (paper §6.4.1)
        assert bd.total > bd.sbr


class TestPublicApi:
    def test_top_level_exports_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_solver_zoo_agreement(self, rng):
        """Every full eigensolver family in the library agrees on one matrix."""
        import repro

        a, lam_true = generate_symmetric(72, distribution="uniform", rng=rng)
        lam_2s = repro.syevd_2stage(a, b=8, nb=24, precision="fp64",
                                    want_vectors=False).eigenvalues
        lam_1s = repro.syevd_1stage(a, want_vectors=False).eigenvalues
        np.testing.assert_allclose(lam_2s, lam_true, atol=1e-10)
        np.testing.assert_allclose(lam_1s, lam_true, atol=1e-10)
