"""WY-based recursive SBR — the paper's **Algorithm 1**.

The trailing matrix is *not* updated after every panel.  Within a "big
block" of ``nb`` columns (``nb`` a multiple of the bandwidth ``b``), the
algorithm:

1. QR-factors the current panel (rows ``i+b..n``, ``b`` columns) — the
   panel's columns were freshened by the previous step's partial update;
2. extends the accumulated WY pair ``(W, Y)`` of the big block
   (``W <- [W | W_p - W (Y^T W_p)]``, the "form W" cost);
3. updates **only the next panel's columns** of the trailing matrix,
   two-sidedly, against the *original* trailing matrix ``OA`` captured at
   block entry:  ``GA = (I - W Y^T)^T OA (I - W Y_c^T)`` restricted to
   those columns (``Y_c`` = rows of ``Y`` matching the target columns);
4. at the block boundary applies the full two-sided update with the
   complete ``(W, Y)`` and recurses on the remaining trailing matrix.

The payoff: the inner dimension of the dominant GEMMs grows to ``k <= nb``
instead of staying at ``b``, trading extra flops (Table 2) for near-square
Tensor-Core-friendly shapes (Table 1, Figures 5–7).  The extra memory for
``OA`` and the accumulated ``(W, Y)`` is the cost the paper's §7 notes.

Implementation notes
--------------------
- We keep a running cache ``OAW = OA @ W``, extended by one panel's worth
  of columns per iteration (GEMM ``wy_oaw``, (M×M)·(M×b)); Algorithm 1 as
  written recomputes it, but the incremental form is what an efficient
  implementation does and what the paper's operation counts reflect.
- The redundant partial update of the *last* panel in a block (which the
  block-boundary full update would overwrite; visible in the MATLAB
  prototype) is skipped.
- The recursion of Algorithm 1 is expressed iteratively: ``j0`` advances
  by ``nb`` per big block over the same storage.

Allocation-free hot path
------------------------
All per-iteration temporaries live in a :class:`repro.perf.Workspace`
arena (``workspace=``).  ``W``/``Y``/``OAW`` grow *in place* inside
preallocated buffers: ``W`` and ``Y`` share one ``(2, M, nb)`` buffer
and ``OAW`` has an ``(M, nb)`` one (leading dimension ``nb``, so the
``[:, :k]`` views are BLAS-ready without packing copies), and ``OA`` and
the update scratch reuse arena buffers.  ``OA`` and the growing buffers
are passed to the GEMMs as prepared operands
(:meth:`~repro.gemm.engine.GemmEngine.prepare_operand`,
:mod:`repro.precision.prepared`): under the EC engine each column's
hi/lo split, and under the FP16/BF16/TF32 engines its rounding, is paid
once per big block, when the column is written, instead of in every GEMM
that reads it.  A step's new ``W`` and ``Y`` columns are one view of the
shared buffer, so they are prepared by one call and scanned as one
array.  Where the engine hands BLAS row-major operands, ``W`` and ``Y``
also keep transposed ``(2, nb, M)`` twins of their prepared form, so
``W^T`` and ``Y_c^T`` reach BLAS without a copy and each written column
block is prepared contiguously; ``OAW`` is never multiplied transposed
and has none.  Most takes repeat an earlier one, and the arena serves
those from a cached view (:mod:`repro.perf.workspace`).

The arena is lent to the engine when the engine has none, so one arena
serves both layers, and it lives for the call: an arena ``sbr_wy``
resolved itself is emptied on return and the engine's loan ends
(:func:`repro.perf.call_arena`).  The result keeps the band, the WY
blocks and the emptied arena's counters.  Pass ``workspace=False`` to
disable reuse (every take allocates — the control arm the benchmarks and
tests compare against).

The block-boundary full update exploits symmetry: only the lower
trapezoid of each column block of ``GA`` is computed and mirrored (first
block ``b`` wide, then ``nb``-wide blocks; see
:func:`repro.gemm.symbolic.full_update_col_blocks`), saving ~35% of the
dominant third-GEMM flops.  The diagonal sub-blocks are exactly
symmetrized; off-diagonal blocks are mirrored rather than averaged, an
O(eps) difference from the previous both-triangles formulation.

Resilience
----------
Each panel iteration — panel QR, (W, Y) extension, and its deferred
trailing update — and the final form-Q run as *retryable units* through
:func:`repro.resilience.context.run_unit`.  When a
:class:`repro.resilience.ResilienceContext` is passed, each unit ends
with one scan of what it wrote, three arrays: ``A``'s panel and updated
columns, the new ``OAW`` columns and the new ``W``/``Y`` columns (no
symmetry probe: every block of ``A`` is written with its mirror), and a
detected breakdown
restores the pre-step state and re-runs the panel at the ladder's
next-safer precision.  That state is a copy of the step's ``b``-column
strip of ``A``: the rest of what the step writes, the trailing matrix,
is still the block's ``OA`` (the update is deferred) and is restored
from it.  The arena-backed ``W``/``Y``/``OAW`` roll back by resetting
the column counter, since a failed step only wrote columns past it.
The strip is taken only when a retry or the checkpoint's interrupt
flush can need it; the flush commits the restored pre-step state on
``KeyboardInterrupt``.

GEMM tags: ``form_w``, ``wy_oaw``, ``wy_right``, ``wy_left``,
``wy_full_right``, ``wy_full_left``, the panel's tags (see
:mod:`repro.sbr.panel`) and ``form_q`` for eigenvector accumulation.
"""

from __future__ import annotations

import numpy as np

from ..ckpt.store import restore_resilience
from ..gemm.engine import GemmEngine, SgemmEngine
from ..gemm.symbolic import full_update_col_blocks
from ..obs import spans as obs
from ..perf import Workspace, call_arena
from ..precision.prepared import PreparedOperand
from ..resilience.context import ResilienceContext, run_unit
from ..validation import Validated, as_symmetric_matrix, check_blocksizes
from .ckptio import save_wy_panel
from .formw import form_q_from_blocks
from .panel import factor_panel
from .types import SbrResult, WYBlock, unpack_wy_blocks

__all__ = ["sbr_wy"]


class _BlockState:
    """Arena-backed accumulated state of one big block.

    ``wy`` is one ``(2, M, nb)`` buffer holding ``W`` (``wy[0]``, also
    ``w``) and ``Y`` (``wy[1]``, also ``y``), and ``oaw`` an ``(M, nb)``
    buffer; the first ``k`` columns are live, and extensions write columns
    ``k:k+w`` in place instead of re-``hstack``-ing ever-larger copies
    each panel.  ``hwy``/``hoaw`` are the engine's prepared operands over
    the same buffers (the buffers themselves on engines that transform no
    operand; ``prepared`` says which), with ``hw``/``hy`` the handles of
    ``W`` and ``Y``, and the GEMMs take views of them.  A column written
    after the handles were made is re-prepared once, through
    ``eng.prepare_operand`` on a view of the handle, so each column's
    transformation (EC split or rounding) is paid once per big block, not
    once per GEMM; one view of ``hwy`` refreshes ``W`` and ``Y`` together.
    Whichever engine is active re-prepares it, so the columns an escalated
    panel wrote are current when the base engine is restored.  ``live``
    is the ``(W, Y, OAW)`` of a mid-block checkpoint resume.
    """

    __slots__ = ("wy", "w", "y", "oaw", "hwy", "hw", "hy", "hoaw", "prepared", "k")

    def __init__(self, ws: Workspace, eng: GemmEngine, M: int, nb: int, dtype,
                 live=None) -> None:
        self.wy = ws.take("sbr_WY", (2, M, nb), dtype)
        self.w, self.y = self.wy
        self.oaw = ws.take("sbr_OAW", (M, nb), dtype)
        self.k = 0
        if live is not None:
            self.k = k = live[0].shape[1]
            for buf, cols in zip((self.w, self.y, self.oaw), live):
                buf[:, :k] = cols
        self.hwy = eng.prepare_operand(self.wy, tag="sbr_WY", cols=self.k)
        self.hw, self.hy = self.hwy[0], self.hwy[1]
        # Nothing multiplies OAW^T: its handle needs no transposed twins.
        self.hoaw = eng.prepare_operand(self.oaw, tag="sbr_OAW", cols=self.k,
                                        twins=False)
        self.prepared = isinstance(self.hoaw, PreparedOperand)

    @property
    def W(self) -> np.ndarray:
        return self.w[:, : self.k]

    @property
    def Y(self) -> np.ndarray:
        return self.y[:, : self.k]

    @property
    def OAW(self) -> np.ndarray:
        return self.oaw[:, : self.k]


def _gemm_into(eng, a, b, view, *, tag):
    """GEMM into a preallocated view, honoring engine substitution.

    A wrapping engine (fault injection, escalation) may return an array
    other than ``out`` — the returned value is authoritative, so copy it
    back into the view in that case.
    """
    res = eng.gemm(a, b, tag=tag, out=view)
    if res is not view:
        view[...] = res
    return view


def sbr_wy(
    a,
    b: int,
    nb: int,
    *,
    engine: GemmEngine | None = None,
    want_q: bool = True,
    q_method: str = "tree",
    workspace=None,
    resilience: ResilienceContext | None = None,
    checkpoint=None,
) -> SbrResult:
    """Reduce a symmetric matrix to band form with the WY-based Algorithm 1.

    Parameters
    ----------
    a : array_like, (n, n) symmetric
        Input matrix, checked by :func:`repro.validation.as_symmetric_matrix`
        unless a driver passes it as :class:`~repro.validation.Validated`.
    b : int
        Target (semi-)bandwidth.
    nb : int
        Big-block size (multiple of ``b``); the deferred-update window.
        ``nb == b`` degenerates to a per-panel full update (ZY-equivalent
        shapes on the left side, WY arithmetic).
    engine : GemmEngine, optional
        GEMM engine implementing the precision policy (default FP32 SGEMM).
    want_q : bool
        Whether to form the orthogonal transform ``Q`` (``A ≈ Q B Q^T``).
    q_method : {"tree", "forward"}
        How to assemble Q from the per-block WY factors when ``want_q``:
        ``"tree"`` uses the recursive FormW merge (paper Algorithm 2).
    workspace : repro.perf.Workspace, bool, or None
        Scratch arena for the hot-loop temporaries (module docstring).
        ``None``/``True`` create a fresh arena, emptied on return;
        ``False`` disables reuse (a :class:`repro.perf.NullWorkspace`
        that allocates every take); or pass an existing arena to share,
        which keeps its buffers.
    resilience : ResilienceContext, optional
        Per-run failure detection + per-panel precision-escalation retry.
    checkpoint : repro.ckpt.CheckpointManager, optional
        Durable checkpoint/restart: after each panel iteration the full
        loop state (``A``, the block's ``OA``/``W``/``Y``/``OAW``,
        completed blocks, loop indices, the resilience-ladder position)
        is committed as a ``"sbr_panel"`` checkpoint, and a previously
        interrupted reduction resumes from its newest verified one —
        possibly mid-big-block — to a bitwise-identical band.

    Returns
    -------
    SbrResult
        Band matrix, bandwidth, optional ``Q``, per-big-block WY blocks,
        and the call's arena (``result.workspace``) whose ``stats()``
        feed the run manifest's ``alloc`` line.
    """
    eng: "GemmEngine" = engine if engine is not None else SgemmEngine()
    # One arena serves both layers for the call: SBR temporaries and the
    # engine's operand store (prepared operands, per-launch splits).
    with call_arena(workspace, eng) as ws:
        return _reduce(a, b, nb, eng, ws, want_q=want_q, q_method=q_method,
                       ctx=resilience, ck=checkpoint)


def _reduce(a, b, nb, eng, ws, *, want_q, q_method, ctx, ck) -> SbrResult:
    """:func:`sbr_wy`'s body, run inside the call's arena."""
    if ctx is not None:
        eng = ctx.wrap_engine(eng)
    dtype = eng.working_dtype
    if isinstance(a, Validated):
        # The driver ran the contract and checked the block sizes; its
        # array stays intact, so the working matrix is a copy of it.
        a = a.array
        A = np.array(a, dtype=dtype)
    else:
        # The contract's exactly symmetric result is a new array: work in
        # it, and keep a copy only for the residual probe at the end.
        A = as_symmetric_matrix(a, dtype=dtype)
        check_blocksizes(A.shape[0], b, nb)
        a = A.copy() if ctx is not None and ctx.detectors.config.residual else None
    n = A.shape[0]
    blocks: list[WYBlock] = []
    # max|A| as check_array scans it: no n x n |A| temporary.
    norm_baseline = max(float(np.maximum.reduce(A, None)),
                        -float(np.minimum.reduce(A, None))) if ctx is not None else 0.0

    panel_index = 0
    j0 = 0
    pending = None  # mid-big-block resume state: (OA, W, Y, OAW, r_start)
    if ck is not None:
        rck = ck.latest(steps=("sbr_panel",))
        if rck is not None:
            s = rck.scalars
            A = np.ascontiguousarray(rck.arrays["A"]).astype(dtype, copy=False)
            blocks = unpack_wy_blocks(rck.arrays, s.get("block_offsets", []))
            j0 = int(s["j0"])
            panel_index = int(s["panel_index"])
            if ctx is not None:
                norm_baseline = float(s.get("norm_baseline", norm_baseline))
            if s.get("mid_block"):
                pending = (
                    np.ascontiguousarray(rck.arrays["OA"]),
                    np.ascontiguousarray(rck.arrays["W"]),
                    np.ascontiguousarray(rck.arrays["Y"]),
                    np.ascontiguousarray(rck.arrays["OAW"]),
                    int(s["r_next"]),
                )
            restore_resilience(ctx, eng, s.get("resilience"))
            ck.mark_resumed(rck)

    while n - j0 - b >= 2:
        M = n - j0 - b  # size of the block's trailing row/col space S
        OA = ws.take("sbr_OA", (M, M), dtype)
        live = None
        if pending is not None:
            oa_r, w_r, y_r, oaw_r, r_start = pending
            pending = None
            np.copyto(OA, oa_r)
            live = (w_r, y_r, oaw_r)
        else:
            # Original trailing matrix for this big block (paper: OA).
            np.copyto(OA, A[j0 + b :, j0 + b :])
            r_start = 0
        st = _BlockState(ws, eng, M, min(nb, M), dtype, live=live)
        # OA is constant for the whole big block: let the engine
        # amortize its operand transformation (the EC hi/lo FP16
        # split — several full M×M passes) across the block's
        # panels.  Bitwise identical to passing OA itself; an engine
        # escalated mid-block multiplies the handle's source array.
        oa_op = eng.prepare_operand(OA, tag="sbr_OA")
        status = "advance"

        for r in range(r_start, nb, b):
            i = j0 + r
            m = n - i - b  # panel rows
            if m < 2:
                break
            status = run_unit(
                ctx, "sbr.panel",
                lambda: _panel_step(
                    A, OA, st, eng, ctx, ws,
                    b=b, nb=nb, j0=j0, r=r, n=n,
                    panel_index=panel_index, norm_baseline=norm_baseline,
                    oa_op=oa_op,
                ),
                engine=eng, panel=panel_index,
                snapshot=lambda: _snapshot_step(A, OA, st, i, r, b),
                on_interrupt=None if ck is None else (
                    lambda: _flush_interrupt_checkpoint(
                        ck, A=A, blocks=blocks, ctx=ctx, eng=eng,
                        j0=j0, r=r, st=st, panel_index=panel_index,
                        norm_baseline=norm_baseline, OA=OA,
                    )
                ),
            )
            panel_index += 1
            if ck is not None and status == "advance" \
                    and ck.should_save_panel(panel_index):
                save_wy_panel(
                    ck, A=A, blocks=blocks, ctx=ctx, eng=eng,
                    j0=j0, r_next=r + b, panel_index=panel_index,
                    norm_baseline=norm_baseline,
                    OA=OA, W=st.W, Y=st.Y, OAW=st.OAW,
                )
            if status != "advance":
                break

        if st.k > 0:
            # Copy out of the arena: the buffers are reused next block.
            blocks.append(
                WYBlock(offset=j0 + b, w=st.W.copy(), y=st.Y.copy())
            )
        if status != "block_end":
            break
        j0 += nb
        if ck is not None and ck.should_save_panel(panel_index):
            # Block boundary: the next panel opens a fresh big block,
            # so only A, the completed blocks, and the indices are live.
            save_wy_panel(
                ck, A=A, blocks=blocks, ctx=ctx, eng=eng,
                j0=j0, r_next=0, panel_index=panel_index,
                norm_baseline=norm_baseline,
            )

    # A is exactly symmetric here: every block of it was written together
    # with its mirror, so no final symmetrization.
    q = None
    if want_q:
        def form_q():
            q = form_q_from_blocks(blocks, n, engine=eng, method=q_method,
                                   dtype=dtype)
            if ctx is not None:
                ctx.check_array(q, site="form_q", precision=eng.precision)
            return q

        with obs.span("sbr.form_q", method=q_method):
            q = run_unit(ctx, "sbr.form_q", form_q, engine=eng)
    if ctx is not None:
        ctx.note_precision("sbr", eng.precision)
        if ctx.detectors.config.residual:
            with ctx.unit("sbr"):
                ctx.check_residual(np.asarray(a, dtype=dtype), blocks, A,
                                   precision=eng.precision)
    return SbrResult(band=A, bandwidth=b, q=q, blocks=blocks, workspace=ws)


def _flush_interrupt_checkpoint(
    ck, *, A, blocks, ctx, eng, j0, r, st, panel_index, norm_baseline, OA,
):
    """Commit a resumable checkpoint after an interrupt restored pre-step state.

    Runs with ``A``/``st`` already rolled back to the start of the
    interrupted panel step, so the commit is exactly the checkpoint the
    regular cadence *would* have written there: mid-block (with
    ``OA``/``W``/``Y``/``OAW``) when earlier panels of this big block are
    live in the arena, block-boundary otherwise (``OA`` is recaptured
    from ``A`` on resume).  Ignores the ``should_save_panel`` cadence —
    an interrupted run flushes unconditionally so resume never falls
    back further than the interrupted panel.  A second interrupt during
    the flush itself propagates; the atomic commit protocol guarantees
    the previous checkpoint stays intact in that case.
    """
    if st.k > 0:
        save_wy_panel(
            ck, A=A, blocks=blocks, ctx=ctx, eng=eng,
            j0=j0, r_next=r, panel_index=panel_index,
            norm_baseline=norm_baseline,
            OA=OA, W=st.W, Y=st.Y, OAW=st.OAW,
        )
    else:
        save_wy_panel(
            ck, A=A, blocks=blocks, ctx=ctx, eng=eng,
            j0=j0, r_next=0, panel_index=panel_index,
            norm_baseline=norm_baseline,
        )


def _snapshot_step(A, OA, st, i, r, b):
    """Save what a panel step may write; return the callable restoring it.

    A step writes ``A[i:, i:]``.  Of that, only the strip ``A[i:, i:i+b]``
    (and its mirror) can differ from what the block started with: the
    trailing update is deferred, so ``A[i+b:, i+b:]`` still equals
    ``OA[r:, r:]`` bitwise, and the restorer copies it back from there.
    The arena state's column counter is saved too: a failed step only
    wrote ``W``/``Y``/``OAW`` columns past it, which resetting the counter
    discards.  The restorer returns the restored ``A[i:, i:]``, the
    step's input, for ``run_unit``'s non-finite input check.
    """
    strip, k = A[i:, i : i + b].copy(), st.k

    def restore():
        A[i:, i : i + b] = strip
        A[i : i + b, i + b :] = strip[b:].T
        A[i + b :, i + b :] = OA[r:, r:]
        st.k = k
        return A[i:, i:]

    return restore


def _panel_step(
    A, OA, st, eng, ctx, ws,
    *, b, nb, j0, r, n, panel_index, norm_baseline, oa_op,
):
    """One panel iteration: QR, (W, Y) extension, deferred update.

    Returns ``"advance"`` (next panel in this big block), ``"tail"``
    (matrix exhausted), or ``"block_end"`` (full trailing update done;
    start the next block).
    """
    dtype = A.dtype
    M = n - j0 - b
    i = j0 + r
    m = n - i - b
    w_cols = min(b, m)

    # --- 1. Panel QR (columns freshened by the previous step). ---
    pf = factor_panel(
        A, i, b, w_cols, engine=eng, resilience=ctx, panel_index=panel_index,
    )

    # --- 2. Extend (W, Y) over the block row space S (leading zeros),
    #     in place inside the arena buffers. --------------------------
    with obs.span("sbr.form_w", rows=M):
        K = st.k
        y_new = st.y[:, K : K + w_cols]
        y_new[:r] = 0
        y_new[r:] = pf.y
        if K == 0:
            w_dst = st.w[:, :w_cols]
            w_dst[:r] = 0
            w_dst[r:] = pf.w
        else:
            wp = ws.take("sbr_wp", (M, w_cols), dtype)
            wp[:r] = 0
            wp[r:] = pf.w
            ytwp = ws.take("sbr_ytwp", (K, w_cols), dtype)
            _gemm_into(eng, st.hy[:, :K].T, wp, ytwp, tag="form_w")
            tmp = ws.take("sbr_wtmp", (M, w_cols), dtype)
            _gemm_into(eng, st.hw[:, :K], ytwp, tmp, tag="form_w")
            np.subtract(wp, tmp, out=st.w[:, K : K + w_cols])
        st.k = K + w_cols
        if st.prepared:
            eng.prepare_operand(st.hwy[:, :, K : st.k], tag="form_w")

    # --- Incremental OA @ W cache (the 'reuse the original matrix'
    #     cost of Algorithm 1's inner loop). -------------------------
    with obs.span("sbr.oaw"):
        _gemm_into(
            eng, oa_op, st.hw[:, K : st.k], st.oaw[:, K : st.k], tag="wy_oaw",
        )
        if st.prepared:
            eng.prepare_operand(st.hoaw[:, K : st.k], tag="wy_oaw")

    if m <= b + 1:
        # Tail: no further panel will run (the next would have
        # m' = m - b < 2 rows), so the partial update must finalize
        # all m remaining columns, not just the next panel's b.
        with obs.span("sbr.partial_update", cols=m):
            _partial_update(A, OA, st, eng, ws, b=b, j0=j0, r=r, cn=m)
        status, c_end = "tail", n
    elif r + b >= nb:
        # Big block exhausted with panels remaining: full trailing
        # update from OA, then start the next big block (recursion).
        with obs.span("sbr.full_update", rows=M - r):
            _full_update(A, OA, st, eng, ws, b=b, nb=nb, j0=j0, r_end=r)
        status, c_end = "block_end", n
    else:
        # --- 3. Partial update: only the next panel's columns. ------
        with obs.span("sbr.partial_update", cols=b):
            _partial_update(A, OA, st, eng, ws, b=b, j0=j0, r=r, cn=b)
        status, c_end = "advance", i + 2 * b
    if ctx is not None:
        # One scan of what the step wrote (the mirrors are copies): the
        # panel and updated columns of A and the new OAW columns, held to
        # the growth bound because they scale with A, then the new W and
        # Y columns in one array, which do not.
        ctx.check_array(
            A[i + b :, i:c_end], st.oaw[:, K : st.k], st.wy[:, :, K : st.k],
            site="wy_step", precision=eng.precision,
            baseline=(norm_baseline, norm_baseline, None),
        )
    return status


def _partial_update(
    A: np.ndarray,
    OA: np.ndarray,
    st: _BlockState,
    eng: GemmEngine,
    ws: Workspace,
    *,
    b: int,
    j0: int,
    r: int,
    cn: int,
) -> None:
    """Two-sided update of ``cn`` columns at S-index ``r`` from ``OA``.

    Computes ``GA = ((I - Y W^T) OA (I - W Y_c^T))[r:, r:r+cn]`` where the
    right restriction uses the rows of ``Y`` matching the target columns
    (paper: ``Y(i:i+nb,:)`` in Algorithm 1 line 9), then writes it and its
    symmetric mirror into ``A``.  S-index ``r`` is absolute ``j0 + b + r``.
    """
    dtype = A.dtype
    M = OA.shape[0]
    K = st.k
    W, Y, OAW = st.hw[:, :K], st.hy[:, :K], st.hoaw[:, :K]
    # Right update: X = OA[:, r:r+cn] - (OA W) Y_c^T  (full column block —
    # the left update's W^T X needs every row of X).
    x = ws.take("sbr_x", (M, cn), dtype)
    _gemm_into(eng, OAW, Y[r : r + cn].T, x, tag="wy_right")
    np.subtract(OA[:, r : r + cn], x, out=x)
    # Left update restricted to the needed rows r..M.
    wtx = ws.take("sbr_wtx", (K, cn), dtype)
    _gemm_into(eng, W.T, x, wtx, tag="wy_left")
    ga = ws.take("sbr_ga", (M - r, cn), dtype)
    _gemm_into(eng, Y[r:], wtx, ga, tag="wy_left")
    np.subtract(x[r:], ga, out=ga)

    # Exactly symmetrize the diagonal cn×cn block before writing.
    ga[:cn] = (ga[:cn] + ga[:cn].T) * dtype.type(0.5)
    lo = j0 + b + r
    A[lo:, lo : lo + cn] = ga
    A[lo : lo + cn, lo:] = ga.T


def _full_update(
    A: np.ndarray,
    OA: np.ndarray,
    st: _BlockState,
    eng: GemmEngine,
    ws: Workspace,
    *,
    b: int,
    nb: int,
    j0: int,
    r_end: int,
) -> None:
    """Block-boundary full trailing update: ``S[r_end:, r_end:]`` from ``OA``.

    This is Algorithm 1 lines 12–13: the entire remaining trailing matrix
    is rebuilt two-sidedly from the block's original ``OA`` with the
    complete accumulated ``(W, Y)`` — the near-square GEMMs with inner
    dimension ``nb`` that make the algorithm Tensor-Core friendly.

    Symmetry-aware: only the lower trapezoid of each column block of the
    result is computed and mirrored (the old path computed the full
    square and averaged both triangles).
    """
    dtype = A.dtype
    M = OA.shape[0]
    K = st.k
    W, Y, OAW = st.hw[:, :K], st.hy[:, :K], st.hoaw[:, :K]
    T = M - r_end
    x = ws.take("sbr_fx", (M, T), dtype)
    _gemm_into(eng, OAW, Y[r_end:].T, x, tag="wy_full_right")
    np.subtract(OA[:, r_end:], x, out=x)
    wtx = ws.take("sbr_fwtx", (K, T), dtype)
    _gemm_into(eng, W.T, x, wtx, tag="wy_full_left")

    lo = j0 + b + r_end
    for c0, c1 in full_update_col_blocks(T, b, nb):
        _apply_full_col_block(
            A, x, Y, wtx, eng, ws, lo=lo, r_end=r_end, c0=c0, c1=c1
        )


def _apply_full_col_block(A, x, Y, wtx, eng, ws, *, lo, r_end, c0, c1):
    """Lower trapezoid of one column block of ``GA``, written + mirrored.

    ``GA[c0:, c0:c1] = X[r_end+c0:, c0:c1] - Y[r_end+c0:, :] (W^T X)[:, c0:c1]``
    with the diagonal ``(c1-c0)``-square exactly symmetrized.
    """
    dtype = A.dtype
    rows = x.shape[0] - r_end - c0  # = T - c0
    gb = ws.take("sbr_fga", (rows, c1 - c0), dtype)
    _gemm_into(eng, Y[r_end + c0 :], wtx[:, c0:c1], gb, tag="wy_full_left")
    np.subtract(x[r_end + c0 :, c0:c1], gb, out=gb)
    d = gb[: c1 - c0]
    d[...] = (d + d.T) * dtype.type(0.5)
    A[lo + c0 :, lo + c0 : lo + c1] = gb
    A[lo + c0 : lo + c1, lo + c0 :] = gb.T
