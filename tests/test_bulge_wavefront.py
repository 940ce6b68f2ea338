"""Tests for stage 2 (band → tridiagonal) and its end-to-end wiring.

Covers numerical correctness across edge geometries against the LAPACK
oracle (``scipy.linalg.eig_banded``), the driver's stage 2, and the
modeled stage-2 flop model behind ``phase_plan``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eig import bulge_chase
from repro.errors import NumericalBreakdownError
from repro.la import extract_band, tridiag_to_dense
from tests.conftest import eig_banded_spectrum, random_symmetric

# Edge geometries: single sweep hop (b >= n-1), bandwidth 1 passthrough,
# n not a multiple of b, b > n/2, tiny matrices, and bulk shapes.
EDGE_GEOMETRIES = [
    (8, 2), (24, 3), (40, 5), (33, 7), (12, 11), (30, 1),
    (5, 4), (3, 2), (2, 1), (65, 16), (9, 8), (50, 2),
]

# The oracle grid: n in {1, 2, 3, b, b+1, 2b+3} for each b.
ORACLE_GEOMETRIES = sorted({
    (n, b)
    for b in (1, 2, 3, 8, 32)
    for n in (1, 2, 3, b, b + 1, 2 * b + 3)
})


class TestWavefrontBulgeChase:
    @pytest.mark.parametrize("n,b", EDGE_GEOMETRIES)
    def test_similarity_and_orthogonality(self, rng, n, b):
        ab = extract_band(random_symmetric(n, rng), b)
        d, e, q = bulge_chase(ab, b, want_q=True)
        t = tridiag_to_dense(d, e)
        np.testing.assert_allclose(q @ t @ q.T, ab, atol=1e-12)
        np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-12)

    @pytest.mark.parametrize("n,b", [(40, 5), (33, 7), (12, 11), (30, 1), (9, 8)])
    def test_all_variants_agree_on_spectrum(self, rng, n, b):
        # The chase's tridiagonal and LAPACK's banded solver agree.
        ab = extract_band(random_symmetric(n, rng), b)
        d, e, _ = bulge_chase(ab, b, want_q=False)
        lam = np.linalg.eigvalsh(tridiag_to_dense(d, e))
        np.testing.assert_allclose(lam, eig_banded_spectrum(ab, b), atol=1e-11)

    @pytest.mark.parametrize("want_q", [True, False])
    @pytest.mark.parametrize("n,b", ORACLE_GEOMETRIES)
    def test_spectrum_matches_eig_banded(self, rng, n, b, want_q):
        ab = extract_band(random_symmetric(n, rng), b)
        d, e, q = bulge_chase(ab, b, want_q=want_q)
        assert d.shape == (n,) and e.shape == (max(n - 1, 0),)
        t = tridiag_to_dense(d, e)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(t), eig_banded_spectrum(ab, b), atol=1e-11
        )
        if want_q:
            np.testing.assert_allclose(q @ t @ q.T, ab, atol=1e-12)
            np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-12)
        else:
            assert q is None

    def test_already_tridiagonal_dead_sweeps(self, rng):
        # Declared bandwidth larger than the true one: every sweep is dead
        # and Q must stay exactly the identity.
        t_in = extract_band(random_symmetric(20, rng), 1)
        d, e, q = bulge_chase(t_in, 5, want_q=True)
        np.testing.assert_array_equal(q, np.eye(20))
        np.testing.assert_allclose(
            q @ tridiag_to_dense(d, e) @ q.T, t_in, atol=1e-12
        )

    @pytest.mark.parametrize("n,b,cut", [(40, 3, 20), (60, 5, 29)])
    def test_partially_dead_sweeps(self, rng, n, b, cut):
        # Two decoupled band blocks: bulges die at the block boundary and
        # the survivors still reduce the matrix exactly.
        ab = extract_band(random_symmetric(n, rng), b)
        ab[cut:, :cut] = 0
        ab[:cut, cut:] = 0
        d, e, q = bulge_chase(ab, b)
        np.testing.assert_allclose(
            q @ tridiag_to_dense(d, e) @ q.T, ab, atol=1e-12
        )

    def test_no_q(self, rng):
        ab = extract_band(random_symmetric(24, rng), 4)
        _, _, q = bulge_chase(ab, 4, want_q=False)
        assert q is None

    def test_extreme_scales(self, rng):
        # LAPACK's rotation generation is scale-safe, so the chase stays
        # finite across the representable range.
        for scale in (1e300, 1e-300):
            ab = extract_band(random_symmetric(16, rng), 3) * scale
            d, e, q = bulge_chase(ab, 3, want_q=True)
            assert np.all(np.isfinite(d)) and np.all(np.isfinite(e))
            np.testing.assert_allclose(
                q @ tridiag_to_dense(d, e) @ q.T, ab, atol=1e-12 * scale
            )

    def test_nonfinite_band_raises_breakdown(self, rng):
        ab = extract_band(random_symmetric(16, rng), 3)
        ab[7, 5] = ab[5, 7] = np.inf
        with pytest.raises(NumericalBreakdownError) as exc:
            bulge_chase(ab, 3)
        assert exc.value.detector == "nonfinite"


class TestDriverBulgeVariant:
    @pytest.mark.parametrize("variant", ("givens", "blocked", "wavefront"))
    def test_syevd_2stage_variant(self, rng, variant):
        # The driver's one stage 2 reproduces the spectrum of each former
        # tridiagonalization scheme: a Givens band chase (LAPACK's
        # ``?sbevd`` through eig_banded), LAPACK's blocked dense
        # reduction, and the wavefront chase run directly.
        from repro.eig.driver import syevd_2stage

        a = random_symmetric(64, rng)
        res = syevd_2stage(a, b=8, nb=16, precision="fp64")
        lam, x = res.eigenvalues, res.eigenvectors
        assert np.linalg.norm(a @ x - x * lam) / np.linalg.norm(a) < 1e-12
        np.testing.assert_allclose(x.T @ x, np.eye(64), atol=1e-12)
        if variant == "givens":
            ref = eig_banded_spectrum(a, 63)
        elif variant == "blocked":
            ref = np.linalg.eigvalsh(a)
        else:
            d, e, _ = bulge_chase(a, 63, want_q=False)
            ref = np.linalg.eigvalsh(tridiag_to_dense(d, e))
        np.testing.assert_allclose(np.sort(lam), ref, atol=1e-11)

    def test_wavefront_with_abft(self, rng):
        from repro.eig.driver import syevd_2stage

        a = random_symmetric(48, rng)
        res = syevd_2stage(a, b=8, nb=16, precision="fp64", abft="correct")
        lam, x = res.eigenvalues, res.eigenvectors
        assert np.linalg.norm(a @ x - x * lam) / np.linalg.norm(a) < 1e-12


class TestBulgeFlopModels:
    def test_dispatch_and_positive(self):
        # phase_plan prices the bulge phase with the modeled wavefront
        # chase, which is positive and grows with the Q accumulation.
        from repro.metrics import bulge_wavefront_flops
        from repro.obs.live.progress import phase_plan

        with_q = bulge_wavefront_flops(256, 16, want_q=True)
        without = bulge_wavefront_flops(256, 16, want_q=False)
        assert with_q > without > 0
        assert phase_plan(256, 16, 64, want_vectors=True)["bulge"] == with_q
        assert phase_plan(256, 16, 64, want_vectors=False)["bulge"] == without
