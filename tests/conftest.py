"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic per-test randomness."""
    return np.random.default_rng(12345)


def random_symmetric(n: int, rng: np.random.Generator, *, dtype=np.float64) -> np.ndarray:
    """Random dense symmetric matrix with entries O(1)."""
    a = rng.standard_normal((n, n))
    return ((a + a.T) * 0.5).astype(dtype)


def assert_orthonormal_columns(q: np.ndarray, *, atol: float = 1e-12) -> None:
    """Assert Q^T Q == I within tolerance."""
    n = q.shape[1]
    gram = q.T @ q
    np.testing.assert_allclose(gram, np.eye(n), atol=atol)


def assert_upper_triangular(r: np.ndarray, *, atol: float = 0.0) -> None:
    """Assert the strictly-lower part of R is (numerically) zero."""
    lower = np.tril(r, k=-1)
    assert np.max(np.abs(lower), initial=0.0) <= atol


def eig_banded_spectrum(ab: np.ndarray, b: int) -> np.ndarray:
    """Ascending eigenvalues of a dense symmetric band matrix by LAPACK.

    The stage-2 oracle: ``scipy.linalg.eig_banded`` on the lower band
    storage of ``ab`` (semi-bandwidth ``b``).
    """
    from scipy.linalg import eig_banded

    n = ab.shape[0]
    b = min(b, n - 1)
    band = np.zeros((b + 1, n))
    for k in range(b + 1):
        band[k, : n - k] = np.diagonal(ab, -k)
    return eig_banded(band, lower=True, eigvals_only=True)
