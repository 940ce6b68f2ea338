"""Resume a checkpointed EVD run from its directory alone.

:func:`resume` is the recovery half of the checkpoint subsystem: given a
run directory written by ``syevd_2stage(..., checkpoint=...)``, it
re-reads the run header (driver configuration + input-matrix digest),
integrity-checks and loads the input, and re-enters the driver with the
same :class:`~repro.ckpt.store.CheckpointManager` — the driver then skips
every phase that already has a verified checkpoint and continues from
the furthest restart point (possibly mid-SBR, mid-big-block).

Because every stage of the pipeline is deterministic (NumPy arithmetic
over bit-exact restored state; no randomized algorithms on this path),
the resumed run reaches a **bitwise-identical** result to the run that
was never interrupted, at every precision mode.  :func:`result_digest`
is the equality witness the tests and the CI crash-recovery job compare.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .store import CheckpointConfig, CheckpointManager

__all__ = ["resume", "result_digest"]

#: run-header config keys forwarded verbatim into ``syevd_2stage``.
_FORWARDED = (
    "b", "nb", "method", "precision", "want_vectors", "on_breakdown",
)


def resume(
    run_dir: str,
    *,
    strict: bool = True,
    crash=None,
    record_trace: bool = False,
    every: int = 1,
    keep_panels: int = 2,
    **overrides,
):
    """Continue an interrupted ``syevd_2stage`` run to completion.

    Parameters
    ----------
    run_dir : str
        A run directory previously created via
        ``syevd_2stage(..., checkpoint=CheckpointConfig(run_dir))``.
    strict : bool
        ``True`` (default): a corrupt checkpoint raises
        :class:`~repro.errors.CheckpointCorruptionError`.  ``False``:
        corrupt checkpoints are recorded in the report and the resume
        falls back to the newest older valid one.
    crash : CrashInjector, optional
        Crash-fault injection for the *resumed* run (recovery tests kill
        a run more than once).
    record_trace : bool
        Record the stage-1 GEMM stream on the resumed run's engine.
    every, keep_panels : int
        Checkpoint cadence for the continuation (see
        :class:`~repro.ckpt.store.CheckpointConfig`).
    **overrides
        Extra keyword arguments forwarded to ``syevd_2stage`` for the
        continuation — run-environment knobs only (``faults=``,
        ``live=``, ``workspace=``, ``check_input=``, ...).
        Arguments pinned in the stored run config (``b``, ``precision``,
        ``method``, ...) cannot be overridden: the checkpoint store
        validates config equality on ``begin`` and raises
        :class:`~repro.errors.ConfigurationError` on a mismatch, since
        changing them would break bitwise-identical resume.

    Returns
    -------
    EvdResult
        With ``checkpoint_report.resumed_from`` naming the restart point
        (``None`` if the directory already held a complete result).
    """
    from ..eig.driver import syevd_2stage  # deferred: driver imports this package

    mgr = CheckpointManager(CheckpointConfig(
        run_dir=run_dir, strict=strict, crash=crash,
        every=every, keep_panels=keep_panels,
    ))
    config = mgr.run_config()
    # Rehydrate the request's causal identity: a run dir written on
    # behalf of a traced job carries its TraceContext in the header, and
    # the continuation must join the same trace (not mint a new one).
    stored_trace = mgr.trace()
    if stored_trace is not None and "trace" not in overrides:
        overrides["trace"] = stored_trace
    if config.get("driver") != "syevd_2stage":
        from ..errors import ConfigurationError
        raise ConfigurationError(
            f"run directory {run_dir!r} was written by driver "
            f"{config.get('driver')!r}; resume supports 'syevd_2stage'"
        )
    a = mgr.input_matrix()
    kwargs = {k: config[k] for k in _FORWARDED if k in config}
    clash = set(kwargs) & set(overrides)
    if clash:
        from ..errors import ConfigurationError
        raise ConfigurationError(
            f"cannot override pinned run config on resume: {sorted(clash)}"
        )
    kwargs.update(overrides)
    return syevd_2stage(a, checkpoint=mgr, record_trace=record_trace, **kwargs)


def result_digest(result) -> str:
    """SHA-256 over the result's exact bytes (eigenvalues + vectors).

    The pipeline is deterministic end to end, so an uninterrupted run and
    a crash-resumed run of the same problem must produce the *same
    digest* — the property the recovery tests and the CI crash-recovery
    job assert.
    """
    h = hashlib.sha256()
    lam = np.ascontiguousarray(result.eigenvalues)
    h.update(str(lam.dtype).encode())
    h.update(lam.tobytes())
    if result.eigenvectors is not None:
        x = np.ascontiguousarray(result.eigenvectors)
        h.update(str(x.dtype).encode())
        h.update(x.tobytes())
    return h.hexdigest()
