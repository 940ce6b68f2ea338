"""Tridiagonal matrix helpers shared by the second-stage eigensolvers."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError

__all__ = ["tridiag_to_dense"]


def tridiag_to_dense(d, e) -> np.ndarray:
    """Dense symmetric tridiagonal matrix from diagonal ``d`` and off-diagonal ``e``.

    Parameters
    ----------
    d : array_like, shape (n,)
        Main diagonal.
    e : array_like, shape (n-1,)
        Sub/super-diagonal.
    """
    d = np.asarray(d)
    e = np.asarray(e)
    if d.ndim != 1 or e.ndim != 1 or e.size != max(d.size - 1, 0):
        raise ShapeError(f"need d (n,) and e (n-1,), got {d.shape} and {e.shape}")
    out = np.diag(d).astype(np.result_type(d, e), copy=False)
    if e.size:
        n = d.size
        idx = np.arange(n - 1)
        out[idx + 1, idx] = e
        out[idx, idx + 1] = e
    return out
