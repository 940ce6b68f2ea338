"""Tests for band and tridiagonal storage helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.la import (
    band_to_dense,
    bandwidth_of,
    extract_band,
    is_banded,
    to_symmetric_band_storage,
    tridiag_to_dense,
)
from tests.conftest import random_symmetric


class TestBandwidth:
    def test_diagonal(self):
        assert bandwidth_of(np.diag([1.0, 2.0, 3.0])) == 0

    def test_tridiagonal(self):
        t = tridiag_to_dense([1.0, 2.0, 3.0], [4.0, 5.0])
        assert bandwidth_of(t) == 1

    def test_dense(self, rng):
        a = random_symmetric(6, rng)
        assert bandwidth_of(a) == 5

    def test_tolerance(self, rng):
        a = extract_band(random_symmetric(8, rng), 2)
        a[7, 0] = 1e-9
        assert bandwidth_of(a) == 7
        assert bandwidth_of(a, tol=1e-6) == 2

    def test_zero_matrix(self):
        assert bandwidth_of(np.zeros((4, 4))) == 0

    def test_is_banded(self, rng):
        a = extract_band(random_symmetric(10, rng), 3)
        assert is_banded(a, 3)
        assert is_banded(a, 5)
        assert not is_banded(a, 2)

    def test_is_banded_negative(self, rng):
        with pytest.raises(ShapeError):
            is_banded(random_symmetric(4, rng), -1)


class TestExtractBand:
    def test_zeroes_outside(self, rng):
        a = random_symmetric(8, rng)
        ab = extract_band(a, 2)
        assert bandwidth_of(ab) <= 2
        # In-band entries untouched.
        for i in range(8):
            for j in range(max(0, i - 2), min(8, i + 3)):
                assert ab[i, j] == a[i, j]

    def test_band_zero(self, rng):
        a = random_symmetric(5, rng)
        np.testing.assert_array_equal(extract_band(a, 0), np.diag(np.diagonal(a)))

    def test_negative_band(self, rng):
        with pytest.raises(ShapeError):
            extract_band(random_symmetric(4, rng), -1)


class TestBandStorage:
    @pytest.mark.parametrize("n,b", [(6, 0), (6, 1), (8, 3), (5, 4), (4, 6)])
    def test_roundtrip(self, rng, n, b):
        a = extract_band(random_symmetric(n, rng), b)
        ab = to_symmetric_band_storage(a, b)
        assert ab.shape == (b + 1, n)
        np.testing.assert_allclose(band_to_dense(ab, n), a, atol=0)

    def test_storage_layout(self):
        a = tridiag_to_dense([1.0, 2.0, 3.0], [9.0, 8.0])
        ab = to_symmetric_band_storage(a, 1)
        np.testing.assert_array_equal(ab[0], [1, 2, 3])
        np.testing.assert_array_equal(ab[1], [9, 8, 0])

    def test_band_to_dense_shape_check(self):
        with pytest.raises(ShapeError):
            band_to_dense(np.zeros((2, 5)), 4)


class TestTridiagonalHelpers:
    def test_tridiag_to_dense(self):
        t = tridiag_to_dense([1.0, 2.0], [5.0])
        np.testing.assert_array_equal(t, [[1, 5], [5, 2]])

    def test_tridiag_single(self):
        np.testing.assert_array_equal(tridiag_to_dense([3.0], []), [[3.0]])

    def test_tridiag_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tridiag_to_dense([1.0, 2.0], [1.0, 2.0])

