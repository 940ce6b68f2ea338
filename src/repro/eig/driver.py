"""End-to-end symmetric eigensolvers (the paper's §6.4 case study).

``syevd_2stage`` chains the library's pieces exactly the way the paper's
implementation chains its GPU band reduction with MAGMA's CPU stages:

1. **Stage 1** — successive band reduction (WY-based Algorithm 1 by
   default; ZY-based available) under the chosen precision policy
   (FP16/TF32 Tensor-Core emulation, EC-TCGEMM, FP32, FP64).
2. **Stage 2** — band to tridiagonal form by LAPACK ``?sbtrd``, or
   ``?sytrd`` + ``?orgqr`` when ``Q_bulge`` is wanted on a wide enough
   band (:func:`repro.eig.bulge.bulge_chase`), where the paper calls
   MAGMA.  (The paper ships the band matrix over PCIe to the host here;
   the device performance model charges that transfer, the numerics
   don't need it.)
3. **Tridiagonal eigensolver** — LAPACK ``sterf`` for eigenvalues only,
   ``stevd`` (divide & conquer) with vectors
   (:func:`repro.eig.dc.tridiag_eig_dc`).
4. **Back-transformation** — when eigenvectors are requested,
   ``Z = Q_bulge @ V_tri``, then stage 1's WY blocks are applied to
   ``Z`` last block first, ``Z[o:] -= W (Y^T Z[o:])``: stage 1 never
   forms its n×n ``Q`` (``EvdResult.sbr.q`` is ``None``).

Stages 2–4 run in float64 regardless of the stage-1 policy, mirroring the
paper's setup where the MAGMA host stages are numerically healthy and all
interesting error comes from the Tensor-Core band reduction (their
Table 4 checks exactly that).

Graceful degradation
--------------------
The drivers run numerical-failure detectors by default
(``on_breakdown="escalate"``): one NaN/Inf, overflow and norm-growth scan
of what each retryable unit wrote, panel-Q orthogonality drift, and
symmetry probes (:mod:`repro.resilience`).  On detection the failed unit — one
panel and its trailing update, or one stage — is retried from a
lightweight checkpoint at the next-safer precision on the ladder
``FP16_TC -> FP16_EC_TC -> TF32_TC -> FP32 -> FP64``.
``on_breakdown="raise"`` propagates a
:class:`~repro.errors.NumericalBreakdownError` naming the failed phase;
``"best_effort"`` grants an exhausted unit one final detector-suppressed
pass at FP64 and says so in the report (only a structural failure in
that last pass still propagates); ``on_breakdown=None`` disables the
resilience layer entirely.  Every run's
:attr:`EvdResult.resilience_report` records what was detected and
escalated — empty on a healthy run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace

import numpy as np

from ..ckpt.store import (
    CheckpointConfig,
    CheckpointManager,
    CheckpointReport,
    resilience_snapshot,
    restore_resilience,
)
from ..errors import ConfigurationError, ConvergenceError, NumericalBreakdownError
from ..gemm.engine import GemmEngine, make_engine
from ..obs import spans as obs
from ..obs.live import phase_plan, resolve_live
from ..obs.tracing import TraceContext
from ..perf import call_arena
from ..precision.modes import Precision
from ..resilience.context import ResilienceContext, run_unit
from ..resilience.faults import FaultInjector
from ..resilience.policy import EscalationLadder, ResilienceReport
from ..sbr.methods import default_nb, sbr_method
from ..sbr.types import SbrResult, apply_wy_blocks, pack_wy_blocks, unpack_wy_blocks
# Not called here (stage 1 runs through ``sbr_method``): bench/test_bench.py
# reads these, and ``tridiag_eig_ql`` below, off this module.
from ..sbr.wy import sbr_wy  # noqa: F401
from ..sbr.zy import sbr_zy  # noqa: F401
from ..validation import Validated, as_symmetric_matrix, check_blocksizes
from .bulge import bulge_chase
from .dc import tridiag_eig_dc
from .inverse_iteration import tridiag_inverse_iteration
from .qliter import tridiag_eig_ql  # noqa: F401
from .sturm import eigvals_bisect
from .tridiag_direct import householder_tridiagonalize

__all__ = ["EvdResult", "syevd_2stage", "syevd_1stage", "syevd_selected"]

@dataclass
class EvdResult:
    """Output of an end-to-end eigendecomposition.

    Attributes
    ----------
    eigenvalues : numpy.ndarray
        Ascending eigenvalues.
    eigenvectors : numpy.ndarray or None
        Orthonormal eigenvectors (columns aligned with ``eigenvalues``),
        ``None`` when not requested.
    sbr : SbrResult or None
        The stage-1 band reduction result (``None`` for 1-stage driver).
        Its ``q`` is ``None``: the back-transform applies its ``blocks``.
    tridiagonal : tuple (d, e)
        The tridiagonal matrix the eigensolver consumed.
    engine : GemmEngine or None
        The stage-1 engine (its ``trace`` carries the GEMM stream when
        recording was enabled).
    resilience_report : ResilienceReport or None
        What the resilience layer detected/escalated during the run
        (``None`` when the layer was disabled with ``on_breakdown=None``;
        ``.empty`` is True for a healthy run).
    checkpoint_report : CheckpointReport or None
        What the checkpoint layer wrote/loaded (``None`` when
        checkpointing was off; ``.resumed_from`` names the restart point
        of a resumed run).
    workspace : repro.perf.Workspace or None
        The stage-1 scratch arena the run used, emptied when stage 1
        ended unless the caller passed it (``None`` when the driver ran
        without one, e.g. checkpoint-resumed results or the 1-stage
        path); its ``stats()`` become the run manifest's ``alloc`` line.
    metrics : dict or None
        Final live-metrics registry dump when the run was launched with
        ``live=`` (counters, gauges, GEMM latency quantiles, alerts,
        progress); becomes the run manifest's ``metrics`` line.  ``None``
        otherwise.
    abft_report : AbftReport or None
        What the online ABFT layer verified/detected/corrected when the
        run was launched with ``abft="detect"``/``"correct"``
        (:mod:`repro.resilience.abft`); becomes the run manifest's
        ``abft`` line.  ``None`` when the layer was off.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    sbr: SbrResult | None
    tridiagonal: tuple[np.ndarray, np.ndarray]
    engine: GemmEngine | None = None
    resilience_report: ResilienceReport | None = None
    checkpoint_report: CheckpointReport | None = None
    workspace: "object | None" = None
    metrics: "dict | None" = None
    abft_report: "object | None" = None


def _solve_tridiagonal_with_context(d, e, want_vectors):
    """Tridiagonal solve, re-raising ConvergenceError with phase context.

    Calls ``tridiag_eig_dc`` through its module-level name on every call:
    the bench tracer times the layer by replacing that attribute.
    """
    try:
        return tridiag_eig_dc(d, e, want_vectors=want_vectors)
    except ConvergenceError as exc:
        # Attach the driver phase instead of swallowing the structured
        # state; re-raise the same (enriched) exception.
        if exc.phase is None:
            exc.phase = "tridiag_solve"
        raise


def _make_context(
    on_breakdown: "str | None",
    ladder: "EscalationLadder | None",
    faults: "FaultInjector | None",
    abft=None,
) -> "ResilienceContext | None":
    """Resolve the resilience context for one driver run."""
    if on_breakdown is None:
        if faults is not None:
            raise ConfigurationError(
                "fault injection requires the resilience layer; "
                "pass on_breakdown='escalate'|'raise'|'best_effort'"
            )
        if abft is not None and abft != "off":
            raise ConfigurationError(
                "online ABFT requires the resilience layer; "
                "pass on_breakdown='escalate'|'raise'|'best_effort'"
            )
        return None
    return ResilienceContext(
        on_breakdown=on_breakdown, ladder=ladder, injector=faults, abft=abft,
    )


def _stage_check(ctx, phase, arr, site):
    """Detect-only check of a deterministic float64 stage output.

    There is nothing to retry or escalate here (the stage is already
    float64 and re-running it is a no-op), so a detection propagates —
    except under ``best_effort``, where it is recorded in the report and
    the run carries on with what it has.
    """
    if ctx is None:
        return
    try:
        with ctx.unit(phase):
            ctx.check_array(arr, site=site)
    except NumericalBreakdownError:
        if ctx.mode != "best_effort":
            raise
        if phase not in ctx.report.best_effort:
            ctx.report.best_effort.append(phase)


def _make_ckpt_manager(checkpoint) -> "CheckpointManager | None":
    """Resolve the ``checkpoint=`` argument (config, manager, dir, or None)."""
    if checkpoint is None:
        return None
    if isinstance(checkpoint, CheckpointManager):
        return checkpoint
    if isinstance(checkpoint, CheckpointConfig):
        return CheckpointManager(checkpoint)
    if isinstance(checkpoint, str):
        return CheckpointManager(CheckpointConfig(run_dir=checkpoint))
    raise ConfigurationError(
        f"checkpoint must be a CheckpointConfig, CheckpointManager, or "
        f"run-directory path, got {type(checkpoint).__name__}"
    )


def _sbr_from_checkpoint(ck_band, b: int) -> SbrResult:
    """Rebuild the stage-1 result from a verified ``"band"`` checkpoint."""
    return SbrResult(
        band=ck_band.arrays["band"],
        bandwidth=int(ck_band.scalars.get("bandwidth", b)),
        blocks=unpack_wy_blocks(
            ck_band.arrays, ck_band.scalars.get("block_offsets", [])
        ),
    )


def _resumed_result(ck, result_ck, b, eng, sbr_eng, ctx) -> "EvdResult":
    """Reassemble a finished run straight from its ``"result"`` checkpoint."""
    band_ck = ck.phase("band")
    restore_resilience(ctx, sbr_eng, result_ck.scalars.get("resilience"))
    ck.mark_resumed(result_ck)
    return EvdResult(
        eigenvalues=result_ck.arrays["eigenvalues"],
        eigenvectors=result_ck.arrays.get("eigenvectors"),
        sbr=_sbr_from_checkpoint(band_ck, b) if band_ck is not None else None,
        tridiagonal=(result_ck.arrays["d"], result_ck.arrays["e"]),
        engine=eng,
        resilience_report=ctx.report if ctx is not None else None,
        checkpoint_report=ck.report,
        abft_report=ctx.abft.report if ctx is not None and ctx.abft is not None else None,
    )


def _prepare(a, b, nb, method, check_input):
    """The two-stage drivers' front: input contract, ``nb`` default, checks."""
    a = as_symmetric_matrix(a, check=check_input)
    if nb is None:
        nb = default_nb(b)
    takes_nb = sbr_method(method).takes_nb
    check_blocksizes(a.shape[0], b, nb if takes_nb else None)
    return a, nb


def _bulge(ctx, band64, b, want_q):
    """Bulge chasing as a retryable unit.

    Stage 2 is float64 work, so there is no precision to escalate —
    recovery is retry-from-checkpoint (the band matrix is immutable
    input), which heals transient corruption; persistent corruption
    exhausts the budget and propagates/degrades per the context mode.
    The fault-injection site ``"bulge"`` corrupts the band copy handed to
    the chase; the pre-chase detectors (non-finite, magnitude, symmetry)
    catch it before the chase runs.  Stage 1 returns the band exactly
    symmetric, so it goes to the chase as ``Validated``.
    """
    if ctx is None:
        return bulge_chase(Validated(band64), b, want_q=want_q)

    def step():
        band_in = ctx.inject("bulge", band64)
        # ABFT copy guard: the pristine band is still in memory, so
        # corruption of the copy localizes (and, in correct mode,
        # patches) exactly.
        band_in = ctx.guard_copy("bulge", band_in, band64)
        # The band scan's max|x| is the symmetry probe's norm.
        norm = ctx.check_array(band_in, site="bulge_band")
        ctx.check_symmetry(band_in, precision=Precision.FP64, norm=norm)
        d, e, q2 = bulge_chase(Validated(band_in), b, want_q=want_q)
        ctx.check_array(d, site="bulge_d")
        if e.size:
            ctx.check_array(e, site="bulge_e")
        return d, e, q2

    out = run_unit(ctx, "bulge", step)
    ctx.note_precision("bulge", Precision.FP64)
    return out


def _back_transform(ctx, blocks, q2, v_tri, record_trace):
    """Assemble ``X = Q_sbr @ Q_bulge @ V_tri`` (float64).

    ``Q_sbr`` is applied from stage 1's WY blocks
    (:func:`repro.sbr.types.apply_wy_blocks`), never formed.  With
    online ABFT or fault injection active the products route through a
    guarded float64 engine (tag ``"back_transform"``) so the launches
    are verified/injectable like the stage-1 stream; the plain path
    stays bare ``@`` products.  The guarded products are one retryable
    unit with no snapshot: the inputs are immutable and each attempt
    starts from a fresh ``Q_bulge @ V_tri``, so a re-run heals transient
    corruption without precision changes.
    """
    if ctx is None or (ctx.abft is None and ctx.injector is None):
        return apply_wy_blocks(blocks, q2 @ v_tri)
    bt_eng = ctx.wrap_engine(make_engine(Precision.FP64, record=record_trace))

    def gemm(a, b):
        return bt_eng.gemm(a, b, tag="back_transform")

    def step():
        x = apply_wy_blocks(blocks, gemm(q2, v_tri), gemm=gemm)
        ctx.check_array(x, site="back_transform")
        return x

    return run_unit(ctx, "back_transform", step)


def syevd_2stage(
    a,
    *,
    b: int = 16,
    nb: int | None = None,
    method: str = "wy",
    precision: "Precision | str" = Precision.FP32,
    want_vectors: bool = True,
    record_trace: bool = False,
    workspace=None,
    on_breakdown: "str | None" = "escalate",
    ladder: "EscalationLadder | None" = None,
    faults: "FaultInjector | None" = None,
    abft: "str | None" = None,
    checkpoint: "CheckpointConfig | CheckpointManager | str | None" = None,
    check_input: bool = True,
    live=None,
    trace: "TraceContext | dict | None" = None,
) -> EvdResult:
    """Two-stage symmetric eigendecomposition ``A = X diag(lam) X^T``.

    Parameters
    ----------
    a : array_like, (n, n) symmetric
        Input matrix.
    b : int
        Stage-1 bandwidth (small enough for cheap bulge chasing, large
        enough for efficient panels; the paper uses 128 at GPU scale).
    nb : int, optional
        WY big-block size (default ``4 * b``); ignored for ``method="zy"``.
    method : {"wy", "zy"}
        Stage-1 algorithm: the paper's Algorithm 1 or the conventional
        ZY-based reduction.  Both factor every panel with the paper's
        TSQR panel (:mod:`repro.sbr.panel`).
    precision : Precision or str
        Stage-1 arithmetic policy.
    want_vectors : bool
        Whether to form eigenvectors (adds ``Q_bulge`` and the
        back-transformation; stage 1 never forms its ``Q``).
    record_trace : bool
        Record the stage-1 GEMM stream on the engine (stage 2 and the
        tridiagonal solve are LAPACK calls and launch no GEMMs).
    workspace : repro.perf.Workspace, bool, or None
        Stage-1 scratch arena (see :func:`repro.sbr.wy.sbr_wy`).
        ``None``/``True`` create one, emptied when stage 1 ends;
        ``False`` disables buffer reuse.  The arena's allocation counters
        are reported on ``EvdResult.workspace`` and in the run manifest's
        ``alloc`` line.
    on_breakdown : {"escalate", "raise", "best_effort"} or None
        Failure-detector response (see module docstring).  ``None``
        disables the resilience layer.
    ladder : EscalationLadder, optional
        Retry budget / widening / stickiness policy.
    faults : FaultInjector, optional
        Deterministic fault injection (test harness).
    abft : {"off", "detect", "correct"} or AbftPolicy, optional
        Online ABFT over every guarded GEMM launch
        (:mod:`repro.resilience.abft`): row/column checksum verification
        after each stage-1/back-transform launch plus a copy guard on
        the bulge band.  ``"detect"`` raises
        :class:`~repro.errors.SdcError` on the first mismatch;
        ``"correct"`` patches single-element corruption in place
        (bitwise-exact, sourced from a deterministic replay), recomputes
        multi-element damage, and escalates only persistent damage to
        the retry ladder.  Default off — zero overhead.  Requires the
        resilience layer (``on_breakdown`` not None).  The run's
        :attr:`EvdResult.abft_report` records what was verified and
        corrected.
    checkpoint : CheckpointConfig, CheckpointManager, or str, optional
        Durable checkpoint/restart (a bare string is taken as the run
        directory).  The run commits restart state after every SBR panel
        and at each phase boundary (``band``, ``tridiag``, ``trieig``,
        ``result``); re-running against a directory holding an earlier
        interrupted run — or calling :func:`repro.ckpt.resume` — skips
        every completed phase and continues from the furthest verified
        checkpoint to a bitwise-identical result.  Checkpoints are
        CRC- and ABFT-checksummed; a torn or corrupted one raises
        :class:`~repro.errors.CheckpointCorruptionError` at load.
    check_input : bool
        Run the input contract (:func:`repro.validation.as_symmetric_matrix`)
        once, up front (default on): non-square, non-finite and
        non-symmetric (beyond ``sqrt(u) * max|A|``) inputs raise a
        structured :class:`~repro.errors.ValidationError` whose ``field``
        names the failed check instead of breaking deep inside SBR.
        ``False`` skips the checks in every layer for pre-validated input
        (shape coercion and the exact symmetrization still happen).
    live : bool, str, LiveConfig, MetricsRegistry, or LiveSession, optional
        Live monitoring for this run (:mod:`repro.obs.live`).  ``True``
        or a directory path starts the full stack — metrics registry,
        progress/ETA estimator seeded from the flop model, background
        reporter writing Prometheus/JSONL snapshots and a heartbeat file
        under the directory.  A bare ``MetricsRegistry`` is installed
        for the call with no reporter thread and no files.  The final
        registry dump is returned on :attr:`EvdResult.metrics`.  To
        aggregate into a registry without a dump, wrap the call in
        ``with repro.obs.use_registry(reg):``.
    trace : TraceContext or dict, optional
        Request-scoped causal context (:mod:`repro.obs.tracing`).  When
        given (or recovered from a checkpointed run directory's header),
        its ids are stamped on the root ``syevd`` span so run-scoped
        telemetry joins the request's trace; checkpointed runs persist
        the context in ``run.json`` and :func:`repro.ckpt.resume`
        rehydrates it, so a killed-and-resumed run continues the same
        trace.

    Returns
    -------
    EvdResult
    """
    a, nb = _prepare(a, b, nb, method, check_input)
    n = a.shape[0]
    ctx = _make_context(on_breakdown, ladder, faults, abft)
    eng = make_engine(precision, record=record_trace)
    sbr_eng = ctx.wrap_engine(eng) if ctx is not None else eng

    ck = _make_ckpt_manager(checkpoint)
    tctx = TraceContext.coerce(trace)
    band_ck = tridiag_ck = trieig_ck = None
    if ck is not None:
        if tctx is not None and ck.config.trace is None:
            # Persist the caller's context into the run header so a later
            # resume of this directory continues the same trace.
            ck.config = _dc_replace(ck.config, trace=tctx.to_dict())
        ck.begin(a, {
            "driver": "syevd_2stage", "n": n, "b": b, "nb": nb,
            "method": method, "precision": eng.precision.value,
            "want_vectors": want_vectors, "on_breakdown": on_breakdown,
        })
        if tctx is None:
            # Resuming a traced directory without an explicit context:
            # rehydrate the one persisted at begin.
            tctx = TraceContext.coerce(ck.trace())
        result_ck = ck.phase("result")
        if result_ck is not None:
            return _resumed_result(ck, result_ck, b, eng, sbr_eng, ctx)
        trieig_ck = ck.phase("trieig")
        tridiag_ck = ck.phase("tridiag")
        band_ck = ck.phase("band")
        furthest = trieig_ck or tridiag_ck or band_ck
        if furthest is not None:
            # Phase-boundary restart: skip completed phases below.  A
            # mid-SBR restart (only sbr_panel checkpoints) is handled
            # inside the SBR driver itself.
            restore_resilience(ctx, sbr_eng, furthest.scalars.get("resilience"))
            ck.mark_resumed(furthest)

    # Live monitoring: `live=` installs a registry (a bare
    # MetricsRegistry) or the full registry/reporter stack with a progress
    # plan from the flop model.  Off by default — a no-op context then.
    if live is not None and live is not False:
        live_sess = resolve_live(live, plan=phase_plan(
            n, b, nb, method=method, want_vectors=want_vectors,
        ))
    else:
        live_sess = resolve_live(None)

    root_meta = dict(n=n, b=b, nb=nb, method=method)
    if tctx is not None:
        root_meta.update(tctx.span_meta())
    with live_sess, obs.span("syevd", **root_meta):
        # The arena serves stage 1 only, and is emptied when it ends.
        with obs.span("sbr"), call_arena(workspace) as ws:
            if band_ck is not None:
                sbr = _sbr_from_checkpoint(band_ck, b)
            else:
                sbr = sbr_method(method).reduce(
                    Validated(a), b, nb, engine=sbr_eng, want_q=False,
                    workspace=ws, resilience=ctx, checkpoint=ck,
                )
            if ck is not None and band_ck is None:
                arrays, offsets = pack_wy_blocks(sbr.blocks)
                arrays["band"] = sbr.band
                ck.save("band", arrays, {
                    "bandwidth": sbr.bandwidth,
                    "block_offsets": offsets,
                    "resilience": resilience_snapshot(ctx, sbr_eng),
                })
                # Every sbr_panel checkpoint is subsumed by the band.
                ck.prune("sbr_panel", keep=0)
        # Nothing past stage 1 reads the input: free its n×n float64 copy
        # before stage 2 makes one of the band.
        del a

        # Stage 2 onward in float64 (host-side MAGMA stages in the paper).
        with obs.span("bulge"):
            if tridiag_ck is not None:
                d = tridiag_ck.arrays["d"]
                e = tridiag_ck.arrays["e"]
                q2 = tridiag_ck.arrays.get("q2")
            else:
                # The band's float64 copy is freed once the chase is done.
                d, e, q2 = _bulge(ctx, np.asarray(sbr.band, dtype=np.float64),
                                  b, want_vectors)
                if ck is not None:
                    ck.save("tridiag", {"d": d, "e": e, "q2": q2}, {
                        "resilience": resilience_snapshot(ctx, sbr_eng),
                    })
        with obs.span("tridiag_solve"):
            if trieig_ck is not None:
                lam = trieig_ck.arrays["lam"]
                v_tri = trieig_ck.arrays.get("v_tri")
            else:
                lam, v_tri = _solve_tridiagonal_with_context(d, e, want_vectors)
                _stage_check(ctx, "tridiag_solve", lam, "tridiag_eigenvalues")
                if ck is not None:
                    ck.save("trieig", {"lam": lam, "v_tri": v_tri}, {
                        "resilience": resilience_snapshot(ctx, sbr_eng),
                    })

        x = None
        if want_vectors:
            with obs.span("back_transform"):
                # X = Q_sbr @ Q_bulge @ V_tri.
                x = _back_transform(ctx, sbr.blocks, q2, v_tri, record_trace)
            _stage_check(ctx, "back_transform", x, "eigenvectors")
        if ck is not None:
            ck.save("result", {
                "eigenvalues": lam, "eigenvectors": x, "d": d, "e": e,
            }, {"resilience": resilience_snapshot(ctx, sbr_eng)})
    return EvdResult(
        eigenvalues=lam,
        eigenvectors=x,
        sbr=sbr,
        tridiagonal=(d, e),
        engine=eng,
        resilience_report=ctx.report if ctx is not None else None,
        checkpoint_report=ck.report if ck is not None else None,
        workspace=ws,
        metrics=live_sess.dump,
        abft_report=ctx.abft.report if ctx is not None and ctx.abft is not None else None,
    )


def syevd_1stage(
    a,
    *,
    want_vectors: bool = True,
    on_breakdown: "str | None" = "escalate",
    check_input: bool = True,
) -> EvdResult:
    """One-stage eigendecomposition: direct Householder tridiagonalization.

    The conventional path (float64): LAPACK ``?sytrd`` straight to
    tridiagonal form (:func:`~repro.eig.tridiag_direct.householder_tridiagonalize`),
    then the same tridiagonal solve as :func:`syevd_2stage`.  Kept as the
    correctness baseline the two-stage driver is validated against.  The
    resilience layer here is detect-and-report only — the whole path is
    already float64, so there is no safer precision to escalate to and
    any detected breakdown propagates (``on_breakdown`` values behave
    alike apart from ``None``, which disables detection).  ``check_input``
    runs the input contract as in :func:`syevd_2stage`.
    """
    a = as_symmetric_matrix(a, dtype=np.float64, check=check_input)
    ctx = _make_context(on_breakdown, None, None)
    with obs.span("syevd_1stage", n=a.shape[0]):
        with obs.span("tridiagonalize"):
            d, e, q1 = householder_tridiagonalize(Validated(a), want_q=want_vectors)
            if ctx is not None:
                with ctx.unit("tridiagonalize"):
                    ctx.check_array(d, site="tridiag_d")
                    if e.size:
                        ctx.check_array(e, site="tridiag_e")
        with obs.span("tridiag_solve"):
            lam, v_tri = _solve_tridiagonal_with_context(d, e, want_vectors)
        with obs.span("back_transform"):
            x = q1 @ v_tri if want_vectors else None
    if ctx is not None:
        ctx.note_precision("tridiagonalize", Precision.FP64)
    return EvdResult(
        eigenvalues=lam,
        eigenvectors=x,
        sbr=None,
        tridiagonal=(d, e),
        engine=None,
        resilience_report=ctx.report if ctx is not None else None,
    )


def syevd_selected(
    a,
    *,
    select: "tuple[int, int] | None" = None,
    interval: "tuple[float, float] | None" = None,
    b: int = 16,
    nb: int | None = None,
    method: str = "wy",
    precision: "Precision | str" = Precision.FP32,
    want_vectors: bool = True,
    on_breakdown: "str | None" = "escalate",
    faults: "FaultInjector | None" = None,
    abft: "str | None" = None,
    check_input: bool = True,
) -> EvdResult:
    """Selected eigenpairs: band reduction + bisection + inverse iteration.

    The query styles the paper's related work attributes to bisection
    methods ("the largest/smallest 100, or all eigenvalues in [a, b]"),
    composed from the library's pieces: stage-1 band reduction under the
    chosen precision, bulge chasing, bisection (LAPACK ``?stebz``) for the
    selected eigenvalues, inverse iteration (``?stein``) for their
    vectors, and the two back-transformations.  Cost scales with the
    *number of selected pairs* after the O(n^2 b) reduction.

    Parameters
    ----------
    select : (lo, hi), optional
        Index range (0-based ascending, half-open).  Mutually exclusive
        with ``interval``; default: all eigenvalues.
    interval : (a, b], optional
        Compute all eigenvalues in the half-open interval.
    (remaining parameters as in :func:`syevd_2stage`)

    Returns
    -------
    EvdResult
        ``eigenvalues``/``eigenvectors`` hold only the selected pairs.
    """
    a, nb = _prepare(a, b, nb, method, check_input)
    n = a.shape[0]
    ctx = _make_context(on_breakdown, None, faults, abft)
    eng = make_engine(precision)
    sbr_eng = ctx.wrap_engine(eng) if ctx is not None else eng
    with obs.span("syevd_selected", n=n, b=b, nb=nb, method=method):
        with obs.span("sbr"):
            sbr = sbr_method(method).reduce(
                Validated(a), b, nb, engine=sbr_eng, want_q=False,
                resilience=ctx,
            )

        with obs.span("bulge"):
            band64 = np.asarray(sbr.band, dtype=np.float64)
            d, e, q2 = _bulge(ctx, band64, b, want_vectors)
        with obs.span("bisect"):
            lam = eigvals_bisect(d, e, select=select, interval=interval)

        x = None
        if want_vectors and lam.size:
            with obs.span("inverse_iteration"):
                v_tri = tridiag_inverse_iteration(d, e, lam)
            with obs.span("back_transform"):
                x = _back_transform(ctx, sbr.blocks, q2, v_tri, False)
        elif want_vectors:
            x = np.zeros((n, 0))
    return EvdResult(
        eigenvalues=lam,
        eigenvectors=x,
        sbr=sbr,
        tridiagonal=(d, e),
        engine=eng,
        resilience_report=ctx.report if ctx is not None else None,
        abft_report=ctx.abft.report if ctx is not None and ctx.abft is not None else None,
    )
