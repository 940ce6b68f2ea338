"""Conventional ZY-representation SBR (the MAGMA ``ssytrd_sy2sb`` algorithm).

Per panel (Dongarra, Sorensen & Hammarling 1989; paper §3.3): QR-factor the
panel into its WY pair (the paper's TSQR panel of :mod:`repro.sbr.panel`,
the same one :func:`repro.sbr.wy.sbr_wy` runs), then apply the two-sided
update to the *entire* trailing matrix as a rank-2b subtraction,

    Z = A W - (1/2) Y (W^T A W),
    A <- A - Z Y^T - Y Z^T.

Tensor Cores have no ``syr2k``, so — exactly as the paper notes — the
symmetric rank-2b update is two independent outer-product GEMMs.  Every
trailing GEMM here has inner dimension ``b`` (tall and skinny), which is
what starves Tensor Cores and motivates the WY-based Algorithm 1.

Each panel (QR + trailing update + Q accumulation) is a retryable unit
run through :func:`repro.resilience.context.run_unit`: the trailing
region ``A[i:, i:]`` and the touched Q columns are copied once when a
retry or the checkpoint's interrupt flush can need them, and under a
:class:`repro.resilience.ResilienceContext` a detected breakdown
restores them and re-runs the panel at the ladder's next-safer
precision.  Each panel ends with one scan of what it wrote, and a
symmetry-drift probe: without ``use_syr2k`` the two independent outer
products leave genuine rounding asymmetry.

GEMM tags (recorded in the engine trace):

====================  =====================================================
``zy_aw``             ``A @ W``          (m×m)·(m×b)
``zy_wtaw``           ``W^T @ (A W)``    (b×m)·(m×b)
``zy_z``              ``Y @ (W^T A W)``  (m×b)·(b×b)
``zy_zyt``/``zy_yzt`` the two rank-2b outer products  (m×b)·(b×m)
``form_q``            trailing Q accumulation (when requested)
``panel_*``           the panel factorization (:mod:`repro.sbr.panel`)
====================  =====================================================
"""

from __future__ import annotations

import numpy as np

from ..ckpt.store import restore_resilience
from ..gemm.engine import GemmEngine, SgemmEngine
from ..obs import spans as obs
from ..perf import call_arena
from ..resilience.context import ResilienceContext, run_unit
from ..validation import Validated, as_symmetric_matrix, check_blocksizes
from .ckptio import save_zy_panel
from .panel import factor_panel
from .types import SbrResult, WYBlock, unpack_wy_blocks

__all__ = ["sbr_zy"]


def sbr_zy(
    a,
    b: int,
    *,
    engine: GemmEngine | None = None,
    want_q: bool = True,
    use_syr2k: bool = False,
    workspace=None,
    resilience: ResilienceContext | None = None,
    checkpoint=None,
) -> SbrResult:
    """Reduce a symmetric matrix to band form with the ZY-based algorithm.

    Parameters
    ----------
    a : array_like, (n, n) symmetric
        Input matrix, checked by :func:`repro.validation.as_symmetric_matrix`
        unless a driver passes it as :class:`~repro.validation.Validated`.
    b : int
        Target (semi-)bandwidth.
    engine : GemmEngine, optional
        GEMM engine implementing the precision policy (default FP32 SGEMM).
    want_q : bool
        Whether to accumulate the orthogonal transform ``Q`` (with
        ``A ≈ Q B Q^T``).
    use_syr2k : bool
        Perform the rank-2b update as a single symmetric ``syr2k`` call
        instead of two explicit GEMMs.  Real Tensor Cores have no native
        syr2k (paper §4.1) — this switch exists for the "what if they did"
        ablation of the paper's future-work section.  The fused form
        accumulates in place into the trailing view (no n² temporary).
    workspace : repro.perf.Workspace, bool, or None
        Scratch arena lent to an engine without one for the call, so the
        precision-conversion buffers (EC operand splits, chunk scratch)
        are reused across panels.  ``None``/``True`` create one, emptied
        on return; ``False`` disables reuse; a passed arena is kept.
    resilience : ResilienceContext, optional
        Per-run failure detection + per-panel precision-escalation retry.
    checkpoint : repro.ckpt.CheckpointManager, optional
        Durable checkpoint/restart: after each panel the loop state
        (``A``, the accumulated ``Q``, the WY blocks, indices, the
        resilience-ladder position) is committed as a ``"sbr_panel"``
        checkpoint, and an interrupted reduction resumes from its newest
        verified one to a bitwise-identical band.

    Returns
    -------
    SbrResult
        Band matrix, bandwidth, optional ``Q``, and the per-panel WY blocks.
    """
    eng: "GemmEngine" = engine if engine is not None else SgemmEngine()
    # The engine's scratch lives in the call's arena (repro.perf.call_arena).
    with call_arena(workspace, eng) as ws:
        return _reduce(a, b, eng, ws, want_q=want_q, use_syr2k=use_syr2k,
                       ctx=resilience, ck=checkpoint)


def _reduce(a, b, eng, ws, *, want_q, use_syr2k, ctx, ck) -> SbrResult:
    """:func:`sbr_zy`'s body, run inside the call's arena."""
    if ctx is not None:
        eng = ctx.wrap_engine(eng)
    if isinstance(a, Validated):
        a = a.array  # the driver ran the contract and checked the block sizes
    else:
        a = as_symmetric_matrix(a, dtype=eng.working_dtype)
        check_blocksizes(a.shape[0], b)
    n = a.shape[0]

    dtype = eng.working_dtype
    a = np.asarray(a, dtype=dtype)
    A = a.copy()
    q = np.eye(n, dtype=dtype) if want_q else None
    blocks: list[WYBlock] = []
    norm_baseline = float(np.abs(A).max()) if ctx is not None else 0.0

    panel_index = 0
    i = 0
    if ck is not None:
        rck = ck.latest(steps=("sbr_panel",))
        if rck is not None:
            s = rck.scalars
            A = np.ascontiguousarray(rck.arrays["A"]).astype(dtype, copy=False)
            if want_q:
                q = np.ascontiguousarray(rck.arrays["q"]).astype(dtype, copy=False)
            blocks = unpack_wy_blocks(rck.arrays, s.get("block_offsets", []))
            i = int(s["i"])
            panel_index = int(s["panel_index"])
            if ctx is not None:
                norm_baseline = float(s.get("norm_baseline", norm_baseline))
            restore_resilience(ctx, eng, s.get("resilience"))
            ck.mark_resumed(rck)

    while n - i - b >= 2:
        w, y = run_unit(
            ctx, "sbr.panel",
            lambda: _zy_panel_step(
                A, q, eng, ctx,
                b=b, i=i, n=n, use_syr2k=use_syr2k,
                panel_index=panel_index, norm_baseline=norm_baseline,
            ),
            engine=eng, panel=panel_index,
            snapshot=lambda: _snapshot_step(A, q, i, b),
            # Commit the restored pre-step state on an interrupt, so a
            # resume starts at this panel, not the last cadence checkpoint.
            on_interrupt=None if ck is None else (
                lambda: save_zy_panel(
                    ck, A=A, q=q, blocks=blocks, ctx=ctx, eng=eng,
                    i=i, panel_index=panel_index, norm_baseline=norm_baseline,
                )
            ),
        )
        blocks.append(WYBlock(offset=i + b, w=w, y=y))
        panel_index += 1
        i += b
        if ck is not None and n - i - b >= 2 \
                and ck.should_save_panel(panel_index):
            # The final panel's checkpoint is skipped: the caller's
            # "band" phase checkpoint lands immediately after.
            save_zy_panel(
                ck, A=A, q=q, blocks=blocks, ctx=ctx, eng=eng,
                i=i, panel_index=panel_index, norm_baseline=norm_baseline,
            )

    # Exact symmetry of the band output (two independent outer products
    # leave rounding-level asymmetry in the trailing block).
    A = (A + A.T) * dtype.type(0.5)
    if ctx is not None:
        ctx.note_precision("sbr", eng.precision)
        if ctx.detectors.config.residual:
            with ctx.unit("sbr"):
                ctx.check_residual(a, blocks, A, precision=eng.precision)
    return SbrResult(band=A, bandwidth=b, q=q, blocks=blocks, workspace=ws)


def _snapshot_step(A, q, i, b):
    """Save what a ZY panel may write (``A[i:, i:]``, ``Q[:, i+b:]``); the
    restorer returns ``A[i:, i:]``, the panel's input."""
    region = A[i:, i:].copy()
    cols = q[:, i + b :].copy() if q is not None else None

    def restore():
        A[i:, i:] = region
        if cols is not None:
            q[:, i + b :] = cols
        return region

    return restore


def _zy_panel_step(
    A, q, eng, ctx,
    *, b, i, n, use_syr2k, panel_index, norm_baseline,
):
    """Panel QR + rank-2b trailing update + Q accumulation (one panel)."""
    dtype = A.dtype
    m = n - i - b
    w_cols = min(b, m)
    pf = factor_panel(
        A, i, b, w_cols, engine=eng, resilience=ctx, panel_index=panel_index,
    )
    w, y = pf.w, pf.y

    # ZY trailing update on the m×m trailing block (two-sided rank-2b).
    with obs.span("sbr.trailing_update", rows=m):
        trailing = A[i + b :, i + b :]
        aw = eng.gemm(trailing, w, tag="zy_aw")
        wtaw = eng.gemm(w.T, aw, tag="zy_wtaw")
        z = aw - dtype.type(0.5) * eng.gemm(y, wtaw, tag="zy_z")
        if use_syr2k:
            # True fused in-place rank-2b update: C <- C - (Z Y^T + Y Z^T)
            # accumulated directly into the trailing view (bitwise equal
            # to the subtract-a-temporary form, without the n² temporary).
            res = eng.syr2k(z, y, tag="zy_syr2k", out=trailing,
                            alpha=-1.0, beta=1.0)
            if res is not trailing:
                trailing[...] = res
        else:
            trailing -= eng.gemm(z, y.T, tag="zy_zyt")
            trailing -= eng.gemm(y, z.T, tag="zy_yzt")

    if q is not None:
        # Q <- Q @ embed(I - W Y^T): only columns i+b.. change.
        with obs.span("sbr.form_q"):
            qw = eng.gemm(q[:, i + b :], w, tag="form_q")
            q[:, i + b :] -= eng.gemm(qw, y.T, tag="form_q")
    if ctx is not None:
        # One scan of what the panel wrote (the mirrors are copies): its
        # columns of A, held to the growth bound, and of Q, scale-free.
        if q is None:
            ctx.check_array(A[i + b :, i:], site="zy_step",
                            precision=eng.precision, baseline=norm_baseline)
        else:
            ctx.check_array(A[i + b :, i:], q[:, i + b :], site="zy_step",
                            precision=eng.precision,
                            baseline=(norm_baseline, None))
        ctx.check_symmetry(trailing, precision=eng.precision, norm=norm_baseline)
    return w, y
