"""Householder QR factorizations: unblocked and blocked (cuSOLVER-style).

The unblocked routine is the leaf kernel of the blocked QR.  The blocked
routine mirrors LAPACK ``geqrf``: factor a panel, accumulate its WY form,
apply ``Q_p^T`` to the trailing columns with two GEMMs per panel.  This is
the "cuSOLVER panel" baseline of the paper's Figure 8.  (TSQR's leaves
and merges call LAPACK directly; see :mod:`repro.la.tsqr`.)
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..gemm.engine import GemmEngine, PlainEngine
from .householder import apply_reflector_left, make_reflector
from .wy import build_wy

__all__ = ["householder_qr", "blocked_qr"]


def householder_qr(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unblocked Householder QR of an m×n matrix (m >= n).

    Returns
    -------
    v_cols : ndarray, shape (m, n)
        Householder vectors in columns; ``v_cols[j, j] == 1`` and entries
        above the diagonal are zero.
    betas : ndarray, shape (n,)
        Reflector coefficients.
    r : ndarray, shape (n, n)
        Upper-triangular factor, so ``A = (H_1 ... H_n) @ [R; 0]``.
    """
    a = np.array(a, copy=True)
    if a.ndim != 2:
        raise ShapeError(f"householder_qr requires a 2-D matrix, got shape {a.shape}")
    m, n = a.shape
    if m < n:
        raise ShapeError(f"householder_qr requires m >= n, got shape {a.shape}")
    dtype = a.dtype if a.dtype.kind == "f" else np.dtype(np.float64)
    a = a.astype(dtype, copy=False)

    v_cols = np.zeros((m, n), dtype=dtype)
    betas = np.zeros(n, dtype=np.float64)
    for j in range(n):
        v, beta, alpha = make_reflector(a[j:, j])
        v_cols[j:, j] = v
        betas[j] = beta
        a[j, j] = dtype.type(alpha)
        a[j + 1 :, j] = 0
        if beta != 0.0 and j + 1 < n:
            apply_reflector_left(a[j:, j + 1 :], v, beta)
    return v_cols, betas, np.triu(a[:n, :n]).copy()


def blocked_qr(
    a,
    *,
    block: int = 32,
    engine: GemmEngine | None = None,
    tag: str = "qr_trailing",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocked Householder QR (LAPACK ``geqrf`` / cuSOLVER ``sgeqrf`` shape).

    Factors panels of ``block`` columns with the unblocked kernel, then
    updates the trailing columns with the panel's WY form (two GEMMs per
    panel, routed through ``engine`` under ``tag``).

    Returns the same ``(v_cols, betas, r)`` triple as
    :func:`householder_qr`.
    """
    a = np.array(a, copy=True)
    if a.ndim != 2:
        raise ShapeError(f"blocked_qr requires a 2-D matrix, got shape {a.shape}")
    m, n = a.shape
    if m < n:
        raise ShapeError(f"blocked_qr requires m >= n, got shape {a.shape}")
    if block <= 0:
        raise ShapeError(f"block must be positive, got {block}")
    dtype = a.dtype if a.dtype.kind == "f" else np.dtype(np.float64)
    a = a.astype(dtype, copy=False)
    eng = engine if engine is not None else PlainEngine()

    v_cols = np.zeros((m, n), dtype=dtype)
    betas = np.zeros(n, dtype=np.float64)
    for j0 in range(0, n, block):
        j1 = min(j0 + block, n)
        pv, pb, pr = householder_qr(a[j0:, j0:j1])
        v_cols[j0:, j0:j1] = pv
        betas[j0:j1] = pb
        a[j0 : j0 + (j1 - j0), j0:j1] = pr
        a[j0 + (j1 - j0) :, j0:j1] = 0
        if j1 < n:
            w, y = build_wy(pv, pb)
            trailing = a[j0:, j1:]
            # trailing <- Q_p^T trailing = trailing - Y (W^T trailing)
            wt_t = eng.gemm(w.T, trailing, tag=tag)
            a[j0:, j1:] = trailing - eng.gemm(y, wt_t, tag=tag)
    return v_cols, betas, np.triu(a[:n, :n]).copy()

