"""One-call instrumented runs: ``syevd_2stage`` → manifest on disk.

This is the glue the report CLI and CI smoke test use: run the two-stage
eigensolver under an active collector, sample accuracy probes at the
stage boundaries (:mod:`repro.metrics.accuracy`), and persist everything
as a JSONL manifest.  The numeric imports are deferred so that
``repro.obs`` itself stays dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .manifest import write_manifest
from .spans import Collector, collect

__all__ = ["RecordedRun", "evd_accuracy_probes", "record_syevd"]


@dataclass
class RecordedRun:
    """Outcome of :func:`record_syevd`."""

    path: str            #: manifest location on disk
    result: object       #: the :class:`repro.eig.driver.EvdResult`
    collector: Collector #: the telemetry session (spans + GEMM events)


def evd_accuracy_probes(a, result, *, reference=True) -> dict:
    """Stage-boundary accuracy probes of one EVD run.

    Parameters
    ----------
    a : array_like, (n, n)
        The original symmetric matrix.
    result : EvdResult
        Output of ``syevd_2stage`` (or compatible).
    reference : bool
        Also compute the eigenvalue error against a float64
        ``numpy.linalg.eigvalsh`` reference spectrum (O(n^3) extra work).

    Returns
    -------
    dict
        ``sbr_backward_error`` / ``sbr_orthogonality`` (stage-1 boundary,
        ``Q`` formed from the WY blocks), ``tridiag_eig_drift`` (stage-2
        boundary), ``eigenvalue_error`` (final, when ``reference``).
    """
    import numpy as np

    from ..metrics.accuracy import (
        backward_error,
        eigenvalue_error,
        orthogonality_error,
    )
    from ..sbr.types import apply_wy_blocks

    probes: dict = {}
    a = np.asarray(a, dtype=np.float64)
    sbr = getattr(result, "sbr", None)
    if sbr is not None:
        # The drivers keep stage 1's WY blocks, not its Q: form Q from
        # them in float64 (O(n^3), like the probes themselves).
        q = apply_wy_blocks(sbr.blocks, np.eye(sbr.n))
        probes["sbr_backward_error"] = backward_error(a, q, sbr.band)
        probes["sbr_orthogonality"] = orthogonality_error(q)
        d, e = result.tridiagonal
        t = np.diag(np.asarray(d, dtype=np.float64))
        if len(e):
            t += np.diag(np.asarray(e, dtype=np.float64), 1)
            t += np.diag(np.asarray(e, dtype=np.float64), -1)
        # Full two-stage transform Q1 Q2 is not stored on the result;
        # probe the stage-2 boundary through the band matrix instead.
        probes["tridiag_eig_drift"] = eigenvalue_error(
            np.linalg.eigvalsh(np.asarray(sbr.band, dtype=np.float64)),
            np.linalg.eigvalsh(t),
        )
    if reference:
        probes["eigenvalue_error"] = eigenvalue_error(
            np.linalg.eigvalsh(a), result.eigenvalues
        )
    return probes


def record_syevd(
    a=None,
    *,
    n: int = 256,
    b: int = 16,
    nb: int | None = None,
    method: str = "wy",
    precision: str = "fp32",
    want_vectors: bool = True,
    distribution: str = "geo",
    cond: float = 1e3,
    seed: int = 0,
    probes: bool = True,
    label: str | None = None,
    path: str | None = None,
    run_dir: str = "runs",
    events: str = "full",
    on_breakdown: "str | None" = "escalate",
    faults=None,
    abft: "str | None" = None,
    checkpoint=None,
    live=None,
    trace=None,
) -> RecordedRun:
    """Run an instrumented ``syevd_2stage`` and write its manifest.

    When ``a`` is omitted, a test matrix is generated with
    :func:`repro.matrices.generate_symmetric` (``n``, ``distribution``,
    ``cond``, ``seed``).  The stage-1 GEMM stream is always recorded and
    embedded in the manifest.  ``on_breakdown`` and ``faults`` (a
    :class:`repro.resilience.FaultInjector`) pass through to the driver;
    the run's resilience report lands in the manifest as a
    ``"resilience"`` line — this is how fault-injection campaigns are
    archived and diffed.  ``abft`` (``"off"``/``"detect"``/``"correct"``
    or an :class:`repro.resilience.AbftPolicy`) turns on online GEMM
    checksum verification; the run's ABFT report is archived as an
    ``"abft"`` manifest line.  ``checkpoint`` (a run-directory string or a
    :class:`repro.ckpt.CheckpointConfig`) likewise passes through; the
    run's :class:`~repro.ckpt.CheckpointReport` is archived as a
    ``"checkpoint"`` manifest line, and the driver's workspace-arena
    allocation counters as an ``"alloc"`` line.  ``live`` (``True``, an
    output directory, or a :class:`repro.obs.live.LiveConfig`) turns on
    the live monitoring layer for the run; the final registry dump is
    archived as the manifest's ``"metrics"`` line.  ``trace`` (a
    :class:`repro.obs.tracing.TraceContext` or its dict form) threads a
    request-scoped causal context through the driver and onto the
    manifest's meta line.

    Returns
    -------
    RecordedRun
        Manifest path, the solver result, and the collector.
    """
    import numpy as np

    from ..eig.driver import syevd_2stage
    from ..matrices import generate_symmetric
    from ..sbr.methods import default_nb

    if a is None:
        a, _ = generate_symmetric(
            n, distribution=distribution, cond=cond,
            rng=np.random.default_rng(seed),
        )
        matrix_meta = {"n": n, "distribution": distribution, "cond": cond, "seed": seed}
    else:
        a = np.asarray(a)
        n = a.shape[0]
        matrix_meta = {"n": n, "distribution": "user", "cond": None, "seed": None}
    if nb is None:
        nb = default_nb(b)

    with collect() as session:
        result = syevd_2stage(
            a, b=b, nb=nb, method=method, precision=precision,
            want_vectors=want_vectors, record_trace=True, on_breakdown=on_breakdown, faults=faults,
            abft=abft, checkpoint=checkpoint, live=live, trace=trace,
        )

    probe_values = evd_accuracy_probes(a, result) if probes else None
    request_trace = trace
    trace = result.engine.trace if result.engine is not None else None
    report = result.resilience_report
    out_path = write_manifest(
        session,
        path,
        run_dir=run_dir,
        label=label or f"syevd-{method}-{precision}-n{n}",
        precision=precision,
        matrix=matrix_meta,
        config={
            "b": b, "nb": nb, "method": method,
            "want_vectors": want_vectors, "on_breakdown": on_breakdown,
            "abft": getattr(abft, "mode", abft) or "off",
        },
        trace=trace,
        accuracy=probe_values,
        resilience=report.to_dict() if report is not None else None,
        checkpoint=(
            result.checkpoint_report.to_dict()
            if getattr(result, "checkpoint_report", None) is not None
            else None
        ),
        alloc=(
            result.workspace.stats()
            if getattr(result, "workspace", None) is not None
            else None
        ),
        metrics=getattr(result, "metrics", None),
        abft=(
            result.abft_report.to_dict()
            if getattr(result, "abft_report", None) is not None
            else None
        ),
        trace_context=(
            request_trace.to_dict() if hasattr(request_trace, "to_dict")
            else dict(request_trace) if request_trace else None
        ),
        events=events,
    )
    return RecordedRun(path=out_path, result=result, collector=session)
