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
from ..gemm.engine import GemmEngine, PlainEngine

__all__ = [
    "build_wy",
    "extend_wy",
    "wy_matrix",
    "apply_q_left",
    "apply_qt_left",
    "apply_q_right",
    "WYAccumulator",
]


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


def extend_wy(
    w: np.ndarray,
    y: np.ndarray,
    w_p: np.ndarray,
    y_p: np.ndarray,
    *,
    engine: GemmEngine | None = None,
    tag: str = "form_w",
) -> tuple[np.ndarray, np.ndarray]:
    """Merge (W, Y) with a new panel's (W_p, Y_p): ``Q_new = Q_old @ Q_p``.

    All four arguments are (m, ·) matrices over the same row space.  Returns
    the concatenated pair; the correction GEMMs are routed through
    ``engine`` (default: a dtype-neutral plain engine) under ``tag``.
    """
    if w.shape != y.shape or w_p.shape != y_p.shape or w.shape[0] != w_p.shape[0]:
        raise ShapeError(
            f"inconsistent WY shapes: W{w.shape} Y{y.shape} Wp{w_p.shape} Yp{y_p.shape}"
        )
    eng = engine if engine is not None else PlainEngine()
    ytwp = eng.gemm(y, w_p, ta=True, tag=tag)  # (k, b)
    w_new_cols = w_p - eng.gemm(w, ytwp, tag=tag)
    return np.hstack([w, w_new_cols]), np.hstack([y, y_p])


def wy_matrix(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense ``Q = I - W Y^T`` (testing / small reference use)."""
    if w.shape != y.shape:
        raise ShapeError(f"W and Y must have equal shapes, got {w.shape} and {y.shape}")
    return np.eye(w.shape[0], dtype=w.dtype) - w @ y.T


def apply_q_left(
    a: np.ndarray,
    w: np.ndarray,
    y: np.ndarray,
    *,
    engine: GemmEngine | None = None,
    tag: str = "apply_q",
) -> np.ndarray:
    """Return ``(I - W Y^T) @ A`` using two GEMMs."""
    eng = engine if engine is not None else PlainEngine()
    return a - eng.gemm(w, eng.gemm(y, a, ta=True, tag=tag), tag=tag)


def apply_qt_left(
    a: np.ndarray,
    w: np.ndarray,
    y: np.ndarray,
    *,
    engine: GemmEngine | None = None,
    tag: str = "apply_qt",
) -> np.ndarray:
    """Return ``(I - W Y^T)^T @ A = A - Y (W^T A)`` using two GEMMs."""
    eng = engine if engine is not None else PlainEngine()
    return a - eng.gemm(y, eng.gemm(w, a, ta=True, tag=tag), tag=tag)


def apply_q_right(
    a: np.ndarray,
    w: np.ndarray,
    y: np.ndarray,
    *,
    engine: GemmEngine | None = None,
    tag: str = "apply_q",
) -> np.ndarray:
    """Return ``A @ (I - W Y^T) = A - (A W) Y^T`` using two GEMMs."""
    eng = engine if engine is not None else PlainEngine()
    return a - eng.gemm(eng.gemm(a, w, tag=tag), y, tb=True, tag=tag)


class WYAccumulator:
    """Incrementally accumulated WY pair over a fixed row space.

    Used by the SBR drivers: reflector panels arrive one at a time (each
    embedded into the full trailing row range with leading zeros), and the
    accumulator maintains (W, Y) for the product of everything seen so far.

    Parameters
    ----------
    m : int
        Row dimension of the accumulated W and Y.
    dtype : numpy dtype
        Storage dtype (float32 for TC/SGEMM policies, float64 for FP64).
    engine : GemmEngine, optional
        Engine used for the extension GEMMs.
    """

    def __init__(self, m: int, *, dtype=np.float32, engine: GemmEngine | None = None):
        if m <= 0:
            raise ShapeError(f"row dimension must be positive, got {m}")
        self.m = int(m)
        self.dtype = np.dtype(dtype)
        self.engine = engine if engine is not None else PlainEngine()
        self._w: np.ndarray | None = None
        self._y: np.ndarray | None = None

    @property
    def ncols(self) -> int:
        """Number of accumulated reflector columns."""
        return 0 if self._w is None else self._w.shape[1]

    @property
    def w(self) -> np.ndarray:
        """The accumulated W (empty (m, 0) before any append)."""
        if self._w is None:
            return np.empty((self.m, 0), dtype=self.dtype)
        return self._w

    @property
    def y(self) -> np.ndarray:
        """The accumulated Y (empty (m, 0) before any append)."""
        if self._y is None:
            return np.empty((self.m, 0), dtype=self.dtype)
        return self._y

    def append_block(self, w_p: np.ndarray, y_p: np.ndarray, *, tag: str = "form_w") -> None:
        """Append a panel's (W_p, Y_p), merging with the running product."""
        if w_p.shape != y_p.shape or w_p.shape[0] != self.m:
            raise ShapeError(
                f"panel WY must be ({self.m}, b); got Wp{w_p.shape} Yp{y_p.shape}"
            )
        w_p = np.ascontiguousarray(w_p, dtype=self.dtype)
        y_p = np.ascontiguousarray(y_p, dtype=self.dtype)
        if self._w is None:
            self._w, self._y = w_p.copy(), y_p.copy()
            return
        self._w, self._y = extend_wy(
            self._w, self._y, w_p, y_p, engine=self.engine, tag=tag
        )

    def q_matrix(self) -> np.ndarray:
        """Dense ``I - W Y^T`` of the accumulated product (testing aid)."""
        return wy_matrix(
            self.w if self.ncols else np.zeros((self.m, 1), dtype=self.dtype),
            self.y if self.ncols else np.zeros((self.m, 1), dtype=self.dtype),
        )
