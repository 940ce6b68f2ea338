"""Tall-Skinny QR (TSQR) with Householder local factorizations.

TSQR (a special case of Communication-Avoiding QR, Demmel et al.) factors a
tall matrix by a binary reduction tree: leaves factor row blocks
independently, and each internal node factors the two stacked R factors of
its children.  The explicit Q is recovered by propagating the small inner
Q factors back down the tree with GEMMs — exactly the shape of work Tensor
Cores accelerate, which is why the paper's TSQR panel beats the
column-at-a-time MAGMA/cuSOLVER panels by ~5x (Figure 8).

Two modifications from the reference GPU implementation are reflected
here (paper §5.1): local factorizations use **Householder reflections**
(not modified Gram–Schmidt) for stability, and the leaf kernel works on
column-major blocks.  Both hold by construction: every leaf and every
tree merge is one LAPACK ``geqrf`` (Householder QR of a Fortran-ordered
block) plus ``orgqr`` (its explicit thin Q).  The tree is the
communication-avoiding QR of Ballard et al., which admits any
Householder QR at its nodes.  The leaves issue no engine GEMMs, so only
the Q back-propagation shows in a GEMM trace.

The output is an **explicit Q** — downstream band reduction needs
Householder vectors, which :func:`repro.la.reconstruct.reconstruct_wy`
recovers via non-pivoted LU (Algorithm 3 of the paper).  Only a tree
needs that: :func:`leaf_bounds` is the one leaf rule, and a matrix it
keeps in one leaf is one Householder QR, whose compact WY form
:func:`leaf_wy` returns directly (LAPACK ``geqrt``).
"""

from __future__ import annotations

import functools

import numpy as np

from scipy.linalg import lapack

from ..errors import NumericalBreakdownError, ShapeError
from ..gemm.engine import GemmEngine, PlainEngine
from ..obs import spans as obs

__all__ = ["leaf_bounds", "leaf_wy", "tsqr"]

#: LAPACK compact-WY QR by working dtype, resolved once at import.
_GEQRT = {np.dtype(np.float32): lapack.sgeqrt, np.dtype(np.float64): lapack.dgeqrt}
#: LAPACK ``geqrf``/``orgqr`` by block dtype, resolved once at import to
#: the routines scipy's lookup picks: single for float16 and float32,
#: double for every other float.
_F32_QR = (lapack.sgeqrf, lapack.sorgqr)
_F64_QR = (lapack.dgeqrf, lapack.dorgqr)
_QR = {np.dtype(np.float16): _F32_QR, np.dtype(np.float32): _F32_QR}

_all = np.logical_and.reduce


@functools.cache
def _leaf_masks(n: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """:func:`leaf_wy`'s read-only constants: the n×n upper-triangle mask
    and identity, made once per panel width."""
    masks = np.triu(np.ones((n, n), dtype=bool)), np.eye(n, dtype=dtype)
    for arr in masks:
        arr.flags.writeable = False
    return masks


def leaf_bounds(m: int, n: int, leaf_rows: int | None = None) -> list[tuple[int, int]]:
    """Row ranges ``[(lo, hi), ...]`` of the TSQR leaves of an m×n matrix.

    The one leaf rule: :func:`tsqr` factors these blocks, and a panel
    with a single leaf skips TSQR for :func:`leaf_wy`.  Raises
    :class:`~repro.errors.ShapeError` when ``m < n`` or ``leaf_rows < n``.
    """
    if m < n:
        raise ShapeError(f"tsqr requires m >= n, got shape {(m, n)}")
    if leaf_rows is None:
        # A GPU TSQR wants many small leaves for occupancy (the paper's
        # 4n); this emulation runs its leaves one after another, so each
        # extra leaf only adds a LAPACK call pair and merge GEMMs —
        # default to taller leaves.  Any leaf_rows >= n is numerically
        # valid — this only moves work between the leaf and tree stages.
        leaf_rows = max(16 * n, 256)
    if leaf_rows < n:
        raise ShapeError(f"leaf_rows={leaf_rows} must be >= n={n}")
    splits = list(range(0, m, leaf_rows))
    # Merge a too-short trailing leaf into its predecessor.
    if len(splits) > 1 and m - splits[-1] < n:
        splits.pop()
    return [(s, (splits[i + 1] if i + 1 < len(splits) else m)) for i, s in enumerate(splits)]


def _check_finite(block: np.ndarray) -> None:
    # LAPACK propagates a NaN/Inf silently: report it the way the
    # resilience layer expects.
    if not _all(np.isfinite(block), None):
        raise NumericalBreakdownError(
            "non-finite entry in a TSQR block", detector="nonfinite", site="tsqr",
        )


def _lapack_failed(m: int, n: int, info: int) -> NumericalBreakdownError:
    return NumericalBreakdownError(
        f"LAPACK QR of a {m}x{n} TSQR block failed (info={info})",
        detector="lapack", site="tsqr", value=float(info),
    )


def _householder_qr(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Explicit thin Q and R of one tall block: LAPACK ``geqrf`` + ``orgqr``.

    The TSQR leaves and tree merges both run through here.  A non-finite
    block and a nonzero ``info`` become structured errors.
    """
    m, n = block.shape
    _check_finite(block)
    geqrf, orgqr = _QR.get(block.dtype, _F64_QR)
    qr, tau, _, info = geqrf(block)
    if info == 0:
        r = np.triu(qr[:n])
        q, _, info = orgqr(qr, tau, overwrite_a=1)
    if info != 0:
        raise _lapack_failed(m, n, info)
    return q, r


def leaf_wy(block) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact WY QR of one TSQR leaf: LAPACK ``geqrt`` with block size n.

    Returns ``(y, t, r)`` with ``block = (I - Y T Y^T)[:, :n] @ R``:
    ``y`` (m×n) unit lower trapezoidal, ``t`` and ``r`` n×n upper
    triangular — the reflectors a Householder QR computes, kept instead
    of being formed into an explicit Q.  Runs in float32 for float32
    input, else float64.  For ``m == n`` the last reflector is the
    identity (``?larfg`` of one entry), so ``t``'s last column is zero.
    The contract is a one-leaf :func:`tsqr`'s: a non-finite block raises
    ``NumericalBreakdownError(detector="nonfinite", site="tsqr")``, and
    ``m < n`` raises ``ShapeError``.
    """
    block = np.asarray(block)
    m, n = block.shape
    if m < n:
        raise ShapeError(f"tsqr requires m >= n, got shape {block.shape}")
    dtype = np.dtype(np.float32 if block.dtype == np.float32 else np.float64)
    # The one copy of the block: column-major, so ?geqrt factors it in
    # place and the finiteness check reads it contiguously.
    a = np.array(block, dtype=dtype, order="F")
    _check_finite(a)
    vr, t, info = _GEQRT[dtype](n, a, overwrite_a=1)
    if info != 0:
        raise _lapack_failed(m, n, info)
    # R sits on and above the diagonal of Y's top block; only that n×n
    # block needs clearing.  Copying through the cached upper mask gives
    # what np.triu and ``top -= r; fill_diagonal(top, 1)`` did: R's zeros
    # are +0, and Y's cleared entries are +0 (x - x of a finite x).
    y = np.ascontiguousarray(vr)
    top = y[:n]
    upper, eye = _leaf_masks(n, dtype)
    r = np.zeros((n, n), dtype=dtype)
    np.copyto(r, top, where=upper)
    np.copyto(top, eye, where=upper)
    return y, t, r


def tsqr(
    a,
    *,
    leaf_rows: int | None = None,
    engine: GemmEngine | None = None,
    tag: str = "tsqr",
) -> tuple[np.ndarray, np.ndarray]:
    """Tall-skinny QR via a binary reduction tree.

    Parameters
    ----------
    a : array_like, shape (m, n) with m >= n
        The tall matrix to factor.
    leaf_rows : int, optional
        Row count per leaf block, default ``max(16 * n, 256)``
        (:func:`leaf_bounds`).  Each leaf must have at least ``n`` rows;
        the last leaf absorbs the remainder.
    engine : GemmEngine, optional
        Engine used for the Q back-propagation GEMMs (tagged ``tag``).

    Notes
    -----
    The Q back-propagation GEMMs of each tree level are issued as grouped
    ``gemm_batched`` calls (per operand shape, order-preserving), which
    cuts the per-call precision-conversion overhead of the emulated
    Tensor-Core engines; a batched product is computed slice by slice and
    is bitwise identical to the per-merge GEMM loop.

    Returns
    -------
    q : ndarray, shape (m, n)
        Explicit orthonormal factor.
    r : ndarray, shape (n, n)
        Upper-triangular factor with ``A = Q @ R``.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"tsqr requires a 2-D matrix, got shape {a.shape}")
    m, n = a.shape
    bounds = leaf_bounds(m, n, leaf_rows)
    dtype = a.dtype if a.dtype.kind == "f" else np.dtype(np.float64)
    a = np.ascontiguousarray(a, dtype=dtype)
    eng = engine if engine is not None else PlainEngine()

    # --- Leaf stage: independent QR of each row block. -------------------
    with obs.span("tsqr.leaf", leaves=len(bounds), cols=n):
        leaves = [_householder_qr(a[lo:hi, :]) for lo, hi in bounds]
    q_blocks = [q for q, _ in leaves]
    r_blocks = [r for _, r in leaves]

    # --- Reduction tree: pairwise QR of stacked R factors. ---------------
    # Each level halves the number of active R factors.  The inner Q of a
    # merge is (2n × n); its top/bottom halves update the two children's
    # explicit Q blocks by GEMM — the Tensor-Core-friendly part.
    #
    # q_blocks[i] always maps the i-th surviving R factor's coordinates
    # back to original rows.
    with obs.span("tsqr.tree", leaves=len(r_blocks)):
        while len(r_blocks) > 1:
            pairs = list(range(0, len(r_blocks) - 1, 2))
            halves: list[tuple[np.ndarray, np.ndarray]] = []
            next_r: list[np.ndarray] = []
            jobs: list[tuple[np.ndarray, np.ndarray]] = []
            for i in pairs:
                stacked = np.vstack([r_blocks[i], r_blocks[i + 1]])
                q_inner, r_merged = _householder_qr(stacked)
                halves.append((q_inner[:n, :], q_inner[n:, :]))
                next_r.append(r_merged)
            for p, i in enumerate(pairs):
                top, bot = halves[p]
                jobs.append((q_blocks[i], top))
                jobs.append((q_blocks[i + 1], bot))
            outs = _grouped_gemms(eng, jobs, tag)
            next_q = [
                np.vstack([outs[2 * p], outs[2 * p + 1]])
                for p in range(len(pairs))
            ]
            if len(r_blocks) % 2 == 1:
                next_q.append(q_blocks[-1])
                next_r.append(r_blocks[-1])
            q_blocks, r_blocks = next_q, next_r

    return q_blocks[0], r_blocks[0]


def _grouped_gemms(eng, jobs, tag):
    """Run ``[a @ b for a, b in jobs]``, batching same-shape products.

    Groups by left-operand shape (the right operands are all n×n inner-Q
    halves), issues each group of two or more as one ``gemm_batched``
    call, and scatters the slices back in order — bitwise identical to
    the plain loop, one precision-conversion pass per group.
    """
    outs: list = [None] * len(jobs)
    groups: dict = {}
    for idx, (qa, _) in enumerate(jobs):
        groups.setdefault(qa.shape, []).append(idx)
    for idxs in groups.values():
        if len(idxs) == 1:
            qa, qb = jobs[idxs[0]]
            outs[idxs[0]] = eng.gemm(qa, qb, tag=tag)
        else:
            sa = np.stack([jobs[i][0] for i in idxs])
            sb = np.stack([jobs[i][1] for i in idxs])
            res = eng.gemm_batched(sa, sb, tag=tag)
            for slot, i in enumerate(idxs):
                outs[i] = res[slot]
    return outs
