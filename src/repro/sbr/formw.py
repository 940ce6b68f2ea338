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
    if len(pairs) == 1:
        return pairs[0]
    eng = engine if engine is not None else PlainEngine()
    w_all, y_all, offs = _stack(pairs, rows, eng)
    _merge(w_all, y_all, offs, 0, len(pairs), eng, tag)
    return w_all, y_all


def _stack(pairs, rows, eng):
    """One ``(rows, K)`` W and Y buffer holding ``pairs`` side by side.

    A pair with fewer rows is written into the bottom rows (its leading
    rows are zero).  ``W`` is held in the dtype the merges produce: a
    merge subtracts an engine product from it, which is as wide as the
    engine's working dtype.  Returns the buffers and the column offsets
    of the pairs.
    """
    offs = [0]
    for w, _ in pairs:
        offs.append(offs[-1] + w.shape[1])
    # Distinct dtypes only: result_type takes a bounded number of arguments.
    w_dtype = np.result_type(*{w.dtype for w, _ in pairs}, eng.precision.working_dtype)
    y_dtype = np.result_type(*{y.dtype for _, y in pairs})
    w_all = np.zeros((rows, offs[-1]), dtype=w_dtype)
    y_all = np.zeros((rows, offs[-1]), dtype=y_dtype)
    for (w, y), c0, c1 in zip(pairs, offs, offs[1:]):
        w_all[rows - w.shape[0]:, c0:c1] = w
        y_all[rows - y.shape[0]:, c0:c1] = y
    return w_all, y_all, offs


def _merge(w_all, y_all, offs, lo: int, hi: int, eng: GemmEngine, tag: str):
    """Algorithm 2's recursion, in place, over the column blocks ``lo:hi``.

    The blocks are ``offs[j]:offs[j+1]`` of one ``(W, Y)`` pair.  Each
    merge rewrites the right half's ``W`` columns, ``W_R -= W_L (Y_L^T
    W_R)``; the ``Y`` columns never change, so afterwards the pair's
    columns ``offs[lo]:offs[hi]`` are the merged pair.

    Module-level rather than a closure: a recursive closure references
    itself through its cell, a reference cycle that would keep ``eng``
    (and the workspace arena behind it) alive until the next GC pass.
    """
    if hi - lo == 1:
        return
    mid = (lo + hi) // 2
    _merge(w_all, y_all, offs, lo, mid, eng, tag)
    _merge(w_all, y_all, offs, mid, hi, eng, tag)
    left = slice(offs[lo], offs[mid])
    w_r = w_all[:, offs[mid]:offs[hi]]
    ylt_wr = eng.gemm(y_all[:, left].T, w_r, tag=tag)
    w_r -= eng.gemm(w_all[:, left], ylt_wr, tag=tag)


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
        block and merge them in place (Algorithm 2), then one GEMM forms
        Q.  ``"forward"``: sequentially apply each block to the
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

    # Every block written once into one pair over the row space of the
    # first (largest) block, then merged there.
    base = min(blk.offset for blk in blocks)
    pairs = [(blk.w.astype(dtype, copy=False), blk.y.astype(dtype, copy=False))
             for blk in blocks]
    w_all, y_all, offs = _stack(pairs, n - base, eng)
    _merge(w_all, y_all, offs, 0, len(blocks), eng, "formw")

    # Q[base:, base:] = I - W Y^T: the GEMM writes W Y^T into Q, which is
    # then subtracted from 0 (0 - x, not -x, keeps I - W Y^T's +0s) and
    # given its 1s.  A product wider than Q (an engine escalated past
    # Q's dtype) is subtracted as it is, rounded once.
    qv = q[base:, base:]
    if w_all.dtype != q.dtype:
        qv -= eng.gemm(w_all, y_all.T, tag=tag)
        return q
    p = eng.gemm(w_all, y_all.T, tag=tag, out=qv)
    if p is not qv:
        qv[...] = p
    np.subtract(0, qv, out=qv)
    q.ravel()[base * (n + 1)::n + 1] += 1
    return q
