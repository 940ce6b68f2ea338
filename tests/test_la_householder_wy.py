"""Tests for Householder reflectors and WY accumulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.la import (
    apply_reflector_left,
    build_wy,
    make_reflector,
    reflector_matrix,
    wy_matrix,
)


class TestMakeReflector:
    def test_annihilates_below_first(self, rng):
        x = rng.standard_normal(10)
        v, beta, alpha = make_reflector(x)
        h = reflector_matrix(v, beta)
        hx = h @ x
        np.testing.assert_allclose(hx[1:], 0, atol=1e-13)
        assert np.isclose(abs(hx[0]), np.linalg.norm(x))
        assert np.isclose(hx[0], alpha)

    def test_v0_is_one(self, rng):
        v, _, _ = make_reflector(rng.standard_normal(7))
        assert v[0] == 1.0

    def test_orthogonal(self, rng):
        v, beta, _ = make_reflector(rng.standard_normal(6))
        h = reflector_matrix(v, beta)
        np.testing.assert_allclose(h @ h.T, np.eye(6), atol=1e-14)

    def test_already_reduced_vector(self):
        x = np.array([3.0, 0.0, 0.0])
        v, beta, alpha = make_reflector(x)
        assert beta == 0.0 and alpha == 3.0

    def test_length_one(self):
        v, beta, alpha = make_reflector(np.array([2.5]))
        assert beta == 0.0 and alpha == 2.5

    def test_sign_choice_avoids_cancellation(self):
        # alpha must have sign opposite to x[0].
        x = np.array([5.0, 1e-8])
        _, _, alpha = make_reflector(x)
        assert alpha < 0
        x = np.array([-5.0, 1e-8])
        _, _, alpha = make_reflector(x)
        assert alpha > 0

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            make_reflector(np.array([]))

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            make_reflector(np.zeros((2, 2)))

    def test_float32_dtype_flow(self, rng):
        v, _, _ = make_reflector(rng.standard_normal(5).astype(np.float32))
        assert v.dtype == np.float32


class TestApplyReflector:
    def test_left_matches_dense(self, rng):
        a = rng.standard_normal((6, 4))
        v, beta, _ = make_reflector(rng.standard_normal(6))
        h = reflector_matrix(v, beta)
        expected = h @ a
        work = a.copy()
        apply_reflector_left(work, v, beta)
        np.testing.assert_allclose(work, expected, atol=1e-13)

    def test_zero_beta_noop(self, rng):
        a = rng.standard_normal((5, 3))
        work = a.copy()
        apply_reflector_left(work, np.ones(5), 0.0)
        np.testing.assert_array_equal(work, a)

    def test_left_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            apply_reflector_left(rng.standard_normal((4, 3)), np.ones(5), 0.5)

    def test_embedded_reflector_matrix(self, rng):
        v, beta, _ = make_reflector(rng.standard_normal(3))
        h = reflector_matrix(v, beta, n=5)
        np.testing.assert_array_equal(h[:2, :2], np.eye(2))
        np.testing.assert_allclose(h @ h.T, np.eye(5), atol=1e-14)

    def test_embedding_too_small(self, rng):
        v, beta, _ = make_reflector(rng.standard_normal(5))
        with pytest.raises(ShapeError):
            reflector_matrix(v, beta, n=3)


def _random_reflectors(m, k, rng):
    """k reflectors from a Householder QR of a random m×k matrix."""
    from repro.la import householder_qr

    v_cols, betas, _ = householder_qr(rng.standard_normal((m, k)))
    return v_cols, betas


class TestBuildWY:
    def test_q_equals_product_of_reflectors(self, rng):
        m, k = 12, 5
        v_cols, betas = _random_reflectors(m, k, rng)
        w, y = build_wy(v_cols, betas)
        q = wy_matrix(w, y)
        expected = np.eye(m)
        for j in range(k):  # H_1 H_2 ... H_k applied right-to-left
            h = reflector_matrix(v_cols[:, j], betas[j])
            expected = expected @ h
        np.testing.assert_allclose(q, expected, atol=1e-13)

    def test_q_orthogonal(self, rng):
        v_cols, betas = _random_reflectors(15, 6, rng)
        w, y = build_wy(v_cols, betas)
        q = wy_matrix(w, y)
        np.testing.assert_allclose(q.T @ q, np.eye(15), atol=1e-13)

    def test_y_equals_v(self, rng):
        v_cols, betas = _random_reflectors(8, 3, rng)
        _, y = build_wy(v_cols, betas)
        np.testing.assert_array_equal(y, v_cols)

    def test_single_reflector(self, rng):
        v, beta, _ = make_reflector(rng.standard_normal(6))
        w, y = build_wy(v[:, None], [beta])
        np.testing.assert_allclose(
            wy_matrix(w, y), reflector_matrix(v, beta), atol=1e-14
        )

    def test_betas_length_mismatch(self, rng):
        with pytest.raises(ShapeError):
            build_wy(rng.standard_normal((5, 2)), [0.5])


class TestReflectorScaling:
    """Regression guards for the larfg-style rescaling path."""

    def test_subnormal_scale_input(self):
        x = np.array([3.27e-160, 3.27e-160])
        v, beta, alpha = make_reflector(x)
        h = reflector_matrix(v, beta)
        np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-12)
        assert np.isclose(abs(alpha), np.linalg.norm(x), rtol=1e-10)

    def test_huge_scale_input(self):
        x = np.array([2.5e155, -1.0e155, 3.0e154])
        v, beta, alpha = make_reflector(x)
        h = reflector_matrix(v, beta)
        hx = h @ x
        np.testing.assert_allclose(hx[1:] / np.abs(alpha), 0, atol=1e-12)
        assert np.isfinite(alpha)

    def test_float32_small_scale(self):
        x = np.array([3e-22, 4e-22], dtype=np.float32)
        v, beta, alpha = make_reflector(x)
        assert np.isclose(abs(alpha), 5e-22, rtol=1e-5)
        assert v.dtype == np.float32
