"""Recursive W construction and Q assembly — the paper's **Algorithm 2**.

When eigenvectors are needed, the back-transformation must apply the
product of all accumulated block reflectors.  Because the WY-based SBR
already maintains fully-formed per-block ``(W_j, Y_j)`` pairs, merging them
into one global pair is a tree of squarish GEMMs:

    (I - W_L Y_L^T)(I - W_R Y_R^T)
        = I - [W_L | W_R - W_L (Y_L^T W_R)] [Y_L | Y_R]^T

applied recursively over halves of the block list (Algorithm 2's
left-recurse / right-recurse / merge).  The paper measures ~320 ms vs
420 ms for the ZY-style sequential accumulation at n = 32768 (§4.4).

``form_q_from_blocks`` also provides the sequential ("forward") method
used with the ZY algorithm, for comparison and for Q assembly of
:func:`repro.sbr.zy.sbr_zy` results.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..gemm.engine import GemmEngine, PlainEngine
from .types import WYBlock

__all__ = ["form_wy_tree", "form_q_from_blocks"]


def form_wy_tree(
    pairs: "list[tuple[np.ndarray, np.ndarray]]",
    *,
    engine: GemmEngine | None = None,
    tag: str = "formw",
) -> tuple[np.ndarray, np.ndarray]:
    """Merge WY pairs (all over the same row space) into one pair.

    Parameters
    ----------
    pairs : list of (W, Y)
        WY pairs in application order (leftmost applied first); all must
        share the same row dimension.
    engine : GemmEngine, optional
        Engine for the merge GEMMs (tagged ``tag``).

    Returns
    -------
    (W, Y)
        Single pair with ``I - W Y^T = prod_j (I - W_j Y_j^T)``.
    """
    if not pairs:
        raise ShapeError("form_wy_tree requires at least one WY pair")
    rows = pairs[0][0].shape[0]
    for w, y in pairs:
        if w.shape != y.shape or w.shape[0] != rows:
            raise ShapeError(
                f"all WY pairs must share the row space; got {w.shape} vs rows={rows}"
            )
    eng = engine if engine is not None else PlainEngine()
    return _merge(pairs, 0, len(pairs), eng, tag)


def _merge(pairs, lo: int, hi: int, eng: GemmEngine, tag: str):
    """Algorithm 2's recursion over ``pairs[lo:hi]``.

    Module-level rather than a closure: a recursive closure references
    itself through its cell, a reference cycle that would keep ``eng``
    (and the workspace arena behind it) alive until the next GC pass.
    """
    if hi - lo == 1:
        return pairs[lo]
    mid = (lo + hi) // 2
    w_l, y_l = _merge(pairs, lo, mid, eng, tag)
    w_r, y_r = _merge(pairs, mid, hi, eng, tag)
    ylt_wr = eng.gemm(y_l.T, w_r, tag=tag)
    w_new = w_r - eng.gemm(w_l, ylt_wr, tag=tag)
    return np.hstack([w_l, w_new]), np.hstack([y_l, y_r])


def form_q_from_blocks(
    blocks: "list[WYBlock]",
    n: int,
    *,
    engine: GemmEngine | None = None,
    method: str = "tree",
    dtype=np.float32,
    tag: str = "form_q",
) -> np.ndarray:
    """Assemble the n×n orthogonal ``Q = prod_j embed(I - W_j Y_j^T)``.

    Parameters
    ----------
    blocks : list of WYBlock
        Per-block factors in application order (as produced by the SBR
        drivers); block ``j`` acts on rows ``offset_j..n``.
    n : int
        Full matrix size.
    method : {"tree", "forward"}
        ``"tree"``: embed all blocks into the common row space of the first
        block and merge with :func:`form_wy_tree` (Algorithm 2), then one
        GEMM forms Q.  ``"forward"``: sequentially apply each block to the
        accumulating Q (the conventional ZY-era back transformation).
    """
    eng = engine if engine is not None else PlainEngine()
    q = np.eye(n, dtype=dtype)
    if not blocks:
        return q

    if method == "forward":
        for blk in blocks:
            off = blk.offset
            w = blk.w.astype(dtype, copy=False)
            y = blk.y.astype(dtype, copy=False)
            qw = eng.gemm(q[:, off:], w, tag=tag)
            q[:, off:] -= eng.gemm(qw, y.T, tag=tag)
        return q

    if method != "tree":
        raise ShapeError(f"method must be 'tree' or 'forward', got {method!r}")

    # Embed every block into the row space of the first (largest) block.
    base = min(blk.offset for blk in blocks)
    rows = n - base
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    for blk in blocks:
        pad = blk.offset - base
        w = np.zeros((rows, blk.ncols), dtype=dtype)
        y = np.zeros((rows, blk.ncols), dtype=dtype)
        w[pad:] = blk.w.astype(dtype, copy=False)
        y[pad:] = blk.y.astype(dtype, copy=False)
        pairs.append((w, y))
    w_all, y_all = form_wy_tree(pairs, engine=eng, tag="formw")

    # Q[base:, base:] = I - W Y^T  (one big GEMM).
    q[base:, base:] -= eng.gemm(w_all, y_all.T, tag=tag)
    return q
