"""WY-representation accumulation of Householder reflector products.

For reflectors ``H_j = I - beta_j v_j v_j^T`` (j = 1..k) the WY
representation (Bischof & Van Loan 1987) writes the product

    Q = H_1 H_2 ... H_k = I - W Y^T,

with ``Y = [v_1 | ... | v_k]`` and ``W`` built by the recurrence

    W_1 = [beta_1 v_1],
    W_{j} = [W_{j-1} | beta_j v_j - W_{j-1} (Y_{j-1}^T (beta_j v_j))].

(The paper states the recurrence for ``H_k ... H_1``; because each ``H_j``
is symmetric, ``H_k ... H_1 = Q^T = I - Y W^T`` — the same pair (W, Y)
serves both orders, and we fix the convention ``Q = H_1 ... H_k = I - W
Y^T`` throughout the library.)

Blocked extension (used by Algorithm 1's inner loop) merges an existing
(W, Y) with a freshly factorized panel's (W_p, Y_p):

    Q_new = Q_old Q_p = I - [W | W_p - W (Y^T W_p)] [Y | Y_p]^T,

costing two GEMMs of shapes (k×m)(m×b) and (m×k)(k×b) — these are the
"form W" operations whose cost Table 2 accounts for.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError

__all__ = ["build_wy", "wy_matrix"]


def _check_reflectors(v_cols: np.ndarray, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v_cols = np.asarray(v_cols)
    betas = np.asarray(betas, dtype=np.float64)
    if v_cols.ndim != 2:
        raise ShapeError(f"V must be 2-D (reflectors in columns), got shape {v_cols.shape}")
    if betas.ndim != 1 or betas.size != v_cols.shape[1]:
        raise ShapeError(
            f"betas must be 1-D with one entry per reflector column: "
            f"V has {v_cols.shape[1]} columns, betas has shape {betas.shape}"
        )
    return v_cols, betas


def build_wy(v_cols, betas) -> tuple[np.ndarray, np.ndarray]:
    """Build (W, Y) with ``H_1 ... H_k = I - W Y^T`` from reflector columns.

    Parameters
    ----------
    v_cols : array_like, shape (m, k)
        Householder vectors in columns (``v_cols[j, j] == 1`` for panel
        factorizations, but any vectors are accepted).
    betas : array_like, shape (k,)
        Reflector coefficients.

    Returns
    -------
    (W, Y) : pair of ndarrays, each (m, k)
    """
    v_cols, betas = _check_reflectors(v_cols, betas)
    dtype = v_cols.dtype if v_cols.dtype.kind == "f" else np.dtype(np.float64)
    m, k = v_cols.shape
    y = np.ascontiguousarray(v_cols, dtype=dtype)
    w = np.empty_like(y)
    w[:, 0] = dtype.type(betas[0]) * y[:, 0]
    for j in range(1, k):
        bv = dtype.type(betas[j]) * y[:, j]
        # w_j = beta v - W_{j-1} (Y_{j-1}^T (beta v))
        w[:, j] = bv - w[:, :j] @ (y[:, :j].T @ bv)
    return w, y


def wy_matrix(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense ``Q = I - W Y^T`` (testing / small reference use)."""
    if w.shape != y.shape:
        raise ShapeError(f"W and Y must have equal shapes, got {w.shape} and {y.shape}")
    return np.eye(w.shape[0], dtype=w.dtype) - w @ y.T
