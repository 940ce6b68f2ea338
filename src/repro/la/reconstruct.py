"""Householder-vector reconstruction from an explicit Q (paper Algorithm 3).

TSQR produces an *explicit* orthonormal ``Q`` (m×n), but the band-reduction
trailing updates need the WY form ``I - W Y^T`` built from genuine
Householder vectors — applying an explicit Q directly is unstable in the
two-sided update chain (paper §5.2).  Ballard et al. (2014) showed how to
recover the vectors from ``Q`` itself:

For a diagonal sign matrix ``S`` matching the sign choices a Householder
QR of ``Q`` would make, ``Q S`` is exactly a product of n reflectors,
``Q S = I - Y T Y^T`` with ``Y`` unit lower trapezoidal and ``T`` upper
triangular.  Rearranging,

    Q - S = -Y T Y_1^T S  =  L @ U,

an LU factorization with ``L = Y`` (unit lower trapezoidal, all m rows) and
``U = -T Y_1^T S`` — *unique and needing no pivoting*.  The sign ``S_jj``
must be chosen **during** the elimination: at step j the partially
eliminated diagonal entry ``q̃_jj`` is the quantity whose sign the
Householder QR would have seen, and ``S_jj = -sign(q̃_jj)`` makes the
pivot ``q̃_jj - S_jj = q̃_jj + sign(q̃_jj)`` at least 1 in magnitude
(this is also why no pivoting is required).  A static sign choice from
``diag(Q)`` is wrong from the second column on and loses half the digits —
the tests pin this down.

As in LAPACK's ``?orhr_col``, only the top n×n block is eliminated
column by column; the rows below follow from one triangular solve,
``Y_2 = Q_2 U^{-1}``.  A finite pivot has magnitude at least 1, so only a
NaN/Inf one can be bad, and the first names the failing column.  ``T``
then follows from a second triangular solve, and ``W = Y T``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas

from ..errors import ShapeError, SingularMatrixError
from ..gemm.engine import GemmEngine, PlainEngine

__all__ = ["reconstruct_wy"]

#: BLAS triangular solves by working dtype, resolved once at import.
_TRSM = {np.dtype(np.float32): blas.strsm, np.dtype(np.float64): blas.dtrsm}


def _lu_with_signs(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Non-pivoting LU of ``Q - S`` with on-the-fly signs (``?orhr_col``).

    Returns ``(y, top, s)``: ``y`` is the unit lower-trapezoidal L over
    all m rows, ``top`` the eliminated n×n block (``U`` on and above its
    diagonal, ``Y_1`` below), and ``s`` the chosen sign diagonal.
    """
    m, n = q.shape
    top = np.array(q[:n], copy=True)
    s = np.empty(n, dtype=top.dtype)
    for j in range(n):
        d = top[j, j]
        # The Householder QR sign choice: alpha opposite to the transformed
        # diagonal, so the pivot d - s_j = d + sign(d) never cancels.
        sj = -1.0 if d >= 0 else 1.0
        s[j] = sj
        top[j, j] = piv = d - sj
        col = top[j + 1 :, j]
        col /= piv
        top[j + 1 :, j + 1 :] -= np.multiply.outer(col, top[j, j + 1 :])
    bad = np.flatnonzero(~np.isfinite(np.diagonal(top)))
    if bad.size:
        # A NaN/Inf pivot means a corrupted Q: name it before it poisons W/Y.
        j = int(bad[0])
        raise SingularMatrixError(
            "degenerate pivot reconstructing Householder vectors "
            f"(pivot {top[j, j]!r})",
            column=j,
        )
    y = np.array(q, order="C")
    y[:n] = np.tril(top, -1)
    y.reshape(-1)[: n * n : n + 1] = 1
    # Y_2 U = Q_2, solved in place as U^T Y_2^T = Q_2^T: the transposed
    # views are Fortran-ordered, so BLAS copies neither operand.
    _TRSM[top.dtype](1.0, top.T, y[n:].T, lower=1, overwrite_b=1)
    return y, top, s


def reconstruct_wy(
    q,
    *,
    engine: GemmEngine | None = None,
    tag: str = "reconstruct",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover the WY representation from an explicit orthonormal Q.

    Parameters
    ----------
    q : array_like, shape (m, n) with m >= n
        Explicit orthonormal factor (e.g. from :func:`repro.la.tsqr.tsqr`).
        Reconstructed in float32 when ``q`` is float32, else in float64.
    engine : GemmEngine, optional
        Engine for the ``W = Y @ T`` GEMM (tagged ``tag``).

    Returns
    -------
    w, y : ndarrays, shape (m, n)
        WY pair with ``Q @ diag(s) = (I - W Y^T)[:, :n]``.
    s : ndarray, shape (n,)
        The diagonal of the sign matrix ``S`` (entries ±1).  If the panel
        factorization was ``A = Q R``, then ``A = (I - W Y^T)[:, :n] @
        (diag(s) @ R)``.
    """
    q = np.asarray(q)
    if q.ndim != 2:
        raise ShapeError(f"reconstruct_wy requires a 2-D matrix, got shape {q.shape}")
    m, n = q.shape
    if m < n:
        raise ShapeError(f"reconstruct_wy requires m >= n, got shape {q.shape}")
    dtype = np.dtype(np.float32 if q.dtype == np.float32 else np.float64)
    q = np.asarray(q, dtype=dtype)
    eng = engine if engine is not None else PlainEngine()

    y, top, s = _lu_with_signs(q)

    # U = -T Y_1^T S  =>  T = (-U S) Y_1^{-T}; with V = -U S (scale columns),
    # solve T Y_1^T = V as Y_1 T^T = V^T (unit lower), in place in V.
    t = -(np.triu(top) * s)
    _TRSM[dtype](1.0, top.T, t.T, trans_a=1, diag=1, overwrite_b=1)
    w = eng.gemm(y, t, tag=tag)
    return w, y, s
