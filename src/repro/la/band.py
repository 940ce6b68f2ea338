"""Symmetric band matrix helpers.

Band reduction produces a symmetric matrix whose nonzeros lie within
``|i - j| <= b``.  These helpers extract, verify, and convert between dense
and LAPACK-style symmetric band storage (lower form: ``ab[k, j] =
A[j + k, j]`` for ``k = 0..b``).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..validation import as_square_matrix

__all__ = [
    "bandwidth_of",
    "extract_band",
    "band_to_dense",
    "is_banded",
    "to_symmetric_band_storage",
]


def bandwidth_of(a, *, tol: float = 0.0) -> int:
    """Smallest ``b`` such that ``|A[i, j]| <= tol`` whenever ``|i-j| > b``.

    With the default ``tol=0`` this is the exact bandwidth of the nonzero
    pattern.  Returns 0 for a diagonal matrix.
    """
    a = as_square_matrix(a, name="a")
    n = a.shape[0]
    offsets = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    mask = np.abs(a) > tol
    if not np.any(mask):
        return 0
    return int(offsets[mask].max())


def is_banded(a, b: int, *, tol: float = 0.0) -> bool:
    """Whether all entries of ``a`` outside bandwidth ``b`` are <= ``tol``."""
    if b < 0:
        raise ShapeError(f"bandwidth must be non-negative, got {b}")
    return bandwidth_of(a, tol=tol) <= b


def extract_band(a, b: int) -> np.ndarray:
    """Dense copy of ``a`` with entries outside bandwidth ``b`` zeroed."""
    a = as_square_matrix(a, name="a")
    if b < 0:
        raise ShapeError(f"bandwidth must be non-negative, got {b}")
    n = a.shape[0]
    offsets = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    out = a.copy()
    out[offsets > b] = 0
    return out


def band_to_dense(ab: np.ndarray, n: int) -> np.ndarray:
    """Dense symmetric matrix from lower band storage ``ab`` ((b+1) × n)."""
    ab = np.asarray(ab)
    if ab.ndim != 2 or ab.shape[1] != n:
        raise ShapeError(f"band storage must be (b+1, {n}), got {ab.shape}")
    b = ab.shape[0] - 1
    out = np.zeros((n, n), dtype=ab.dtype)
    for k in range(b + 1):
        m = n - k
        if m <= 0:
            break
        diag = ab[k, :m]
        out[np.arange(k, n), np.arange(m)] = diag
        if k > 0:
            out[np.arange(m), np.arange(k, n)] = diag
    return out


def to_symmetric_band_storage(a, b: int) -> np.ndarray:
    """Lower symmetric band storage ((b+1) × n) of a dense symmetric matrix.

    ``ab[k, j] = A[j + k, j]`` for ``0 <= k <= b`` and ``j + k < n``;
    positions past the matrix edge are zero.
    """
    a = as_square_matrix(a, name="a")
    if b < 0:
        raise ShapeError(f"bandwidth must be non-negative, got {b}")
    n = a.shape[0]
    ab = np.zeros((b + 1, n), dtype=a.dtype)
    for k in range(b + 1):
        m = n - k
        if m <= 0:
            break
        ab[k, :m] = a[np.arange(k, n), np.arange(m)]
    return ab
