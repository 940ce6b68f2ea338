"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated Python errors.

The numerically interesting errors carry *structured* context — which
phase, which panel, which detector, which pivot — so callers (and the
resilience layer in :mod:`repro.resilience`) can decide how to recover
without parsing message strings.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "ShapeError",
    "NotSymmetricError",
    "SingularMatrixError",
    "ConvergenceError",
    "BudgetExceededError",
    "ConfigurationError",
    "NumericalBreakdownError",
    "SdcError",
    "CheckpointCorruptionError",
    "CheckpointSchemaError",
    "SimulatedCrashError",
    "AdmissionError",
    "JobPreempted",
]


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An input argument failed an up-front validation gate.

    The structured counterpart of "failing deep inside SBR": the entry
    validators reject bad inputs before any kernel runs, and ``field``
    names the check that failed so callers (and the serving layer's
    admission control) can map the failure to a client error without
    parsing message strings.

    Attributes
    ----------
    field : str or None
        Which check failed: ``"ndim"``, ``"empty"``, ``"square"``,
        ``"symmetry"``, ``"finite"``, or a routine-specific field name.
    name : str or None
        The argument that failed validation (e.g. ``"a"``, ``"d"``).
    """

    def __init__(self, message: str = "", *, field: str | None = None,
                 name: str | None = None) -> None:
        super().__init__(message)
        self.field = field
        self.name = name

    def __str__(self) -> str:
        msg = super().__str__()
        parts = []
        if self.field is not None:
            parts.append(f"field={self.field}")
        if self.name is not None:
            parts.append(f"name={self.name}")
        if parts:
            return f"{msg} [{', '.join(parts)}]"
        return msg


class ShapeError(ValidationError):
    """An array argument has an incompatible or unsupported shape."""


class NotSymmetricError(ValidationError):
    """A routine requiring a symmetric matrix received a non-symmetric one.

    ``field`` defaults to ``"symmetry"``.
    """

    def __init__(self, message: str = "", *, field: str | None = "symmetry",
                 name: str | None = None) -> None:
        super().__init__(message, field=field, name=name)


class SingularMatrixError(ReproError, ValueError):
    """A factorization encountered an (numerically) singular matrix.

    Attributes
    ----------
    column : int or None
        Offending column/pivot index within the factored block.
    panel : int or None
        Panel index within the enclosing band reduction, attached by the
        SBR drivers when the failure happened inside a panel factorization.
    phase : str or None
        Phase in which the failure occurred (``"sbr.panel"`` for a panel
        factorization), attached with ``panel``.
    """

    def __init__(self, message: str = "", *, column: int | None = None,
                 panel: int | None = None, phase: str | None = None) -> None:
        super().__init__(message)
        self.column = column
        self.panel = panel
        self.phase = phase

    def __str__(self) -> str:
        msg = super().__str__()
        parts = []
        if self.phase is not None:
            parts.append(f"phase={self.phase}")
        if self.panel is not None:
            parts.append(f"panel {self.panel}")
        if self.column is not None:
            parts.append(f"column {self.column}")
        if parts:
            return f"{msg} [{', '.join(parts)}]"
        return msg


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to converge within its iteration cap.

    Attributes
    ----------
    iterations : int or None
        Iterations completed before giving up.
    residual : float or None
        Last observed residual/off-diagonal magnitude.
    phase : str or None
        Driver phase in which the failure occurred (attached by callers
        that re-raise with context, e.g. ``syevd_2stage``).
    """

    def __init__(self, message: str = "", *, iterations: int | None = None,
                 residual: float | None = None, phase: str | None = None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.phase = phase

    def __str__(self) -> str:
        msg = super().__str__()
        parts = []
        if self.phase is not None:
            parts.append(f"phase={self.phase}")
        if self.iterations is not None:
            parts.append(f"iterations={self.iterations}")
        if self.residual is not None:
            parts.append(f"residual={self.residual:.3e}")
        if parts:
            return f"{msg} [{', '.join(parts)}]"
        return msg


class BudgetExceededError(ConvergenceError):
    """An iterative solver exhausted its wall-clock or iteration budget.

    Distinct from plain :class:`ConvergenceError`: the iteration was still
    making (or might still have made) progress, but the caller bounded how
    long it may run — the guard against adversarial inputs that would
    otherwise spin a serving worker indefinitely.

    Attributes
    ----------
    elapsed : float or None
        Wall-clock seconds spent when the budget tripped.
    budget : float or None
        The configured limit that was exceeded (seconds for wall-clock
        budgets, iterations for iteration budgets).
    (plus the :class:`ConvergenceError` attributes
    ``iterations``/``phase``; ``residual`` is None)
    """

    def __init__(self, message: str = "", *, iterations: int | None = None,
                 phase: str | None = None, elapsed: float | None = None,
                 budget: float | None = None) -> None:
        super().__init__(message, iterations=iterations, phase=phase)
        self.elapsed = elapsed
        self.budget = budget

    def __str__(self) -> str:
        msg = super().__str__()
        parts = []
        if self.elapsed is not None:
            parts.append(f"elapsed={self.elapsed:.3f}s")
        if self.budget is not None:
            parts.append(f"budget={self.budget:g}")
        if parts:
            return f"{msg} [{', '.join(parts)}]"
        return msg


class ConfigurationError(ReproError, ValueError):
    """Algorithm parameters are inconsistent (e.g. ``nb`` not a multiple of ``b``)."""


class NumericalBreakdownError(ReproError, ArithmeticError):
    """A numerical-invariant monitor detected breakdown mid-computation.

    Raised by the detectors of :mod:`repro.resilience` when a monitored
    invariant fails — NaN/Inf in a unit's output, panel-Q orthogonality
    drift, trailing-matrix norm explosion, symmetry drift, or a failed
    residual probe.  Carries enough context for the precision-escalation
    ladder to retry the failed unit.

    Attributes
    ----------
    phase : str or None
        Resilience phase in which the detector fired (e.g. ``"sbr.panel"``,
        ``"bulge"``).
    panel : int or None
        Panel index within the phase, when applicable.
    detector : str or None
        Name of the detector that fired (``"nonfinite"``, ``"magnitude"``,
        ``"orthogonality"``, ``"norm_growth"``, ``"symmetry"``,
        ``"residual"``).
    site : str or None
        Injection/monitoring site (typically the GEMM tag).
    value : float or None
        Measured invariant value.
    threshold : float or None
        Threshold the value violated (NaN detection reports ``None``).
    precision : str or None
        Precision policy active when the detector fired.
    """

    def __init__(self, message: str = "", *, phase: str | None = None,
                 panel: int | None = None, detector: str | None = None,
                 site: str | None = None, value: float | None = None,
                 threshold: float | None = None,
                 precision: str | None = None) -> None:
        super().__init__(message)
        self.phase = phase
        self.panel = panel
        self.detector = detector
        self.site = site
        self.value = value
        self.threshold = threshold
        self.precision = precision

    def __str__(self) -> str:
        msg = super().__str__()
        parts = []
        if self.phase is not None:
            parts.append(f"phase={self.phase}")
        if self.panel is not None:
            parts.append(f"panel={self.panel}")
        if self.detector is not None:
            parts.append(f"detector={self.detector}")
        if self.site:
            parts.append(f"site={self.site}")
        if self.value is not None:
            parts.append(f"value={self.value:.3e}")
        if self.threshold is not None:
            parts.append(f"threshold={self.threshold:.3e}")
        if self.precision is not None:
            parts.append(f"precision={self.precision}")
        if parts:
            return f"{msg} [{', '.join(parts)}]"
        return msg

    def to_dict(self) -> dict:
        """JSON-serializable context (used by the resilience report)."""
        return {
            "message": super().__str__(),
            "phase": self.phase,
            "panel": self.panel,
            "detector": self.detector,
            "site": self.site,
            "value": self.value,
            "threshold": self.threshold,
            "precision": self.precision,
        }


class SdcError(NumericalBreakdownError):
    """Online ABFT detected silent data corruption in a GEMM launch.

    Raised by :mod:`repro.resilience.abft` when the row/column checksum
    verification of a guarded engine launch fails — a bit flip, dropped
    lane, or emulated-hardware bug corrupted the output in flight.  In
    ``abft="detect"`` mode it propagates immediately; in ``"correct"``
    mode it is raised only when in-place patching *and* a full launch
    recompute both failed to produce a clean result (persistent damage),
    at which point the precision-escalation ladder takes over exactly as
    for any other :class:`NumericalBreakdownError`.

    Attributes
    ----------
    call_index : int or None
        0-based index of the corrupted launch among the guarded launches
        at ``site`` (aligned with :class:`~repro.resilience.FaultSpec`
        call indices).
    row, col : int or None
        Localized coordinates of the corrupted element when the
        row×column mismatch intersection isolated exactly one (``None``
        for multi-element or unlocalized damage).
    op : str or None
        Engine operation kind (``"gemm"``, ``"gemm_batched"``,
        ``"syr2k"``, ``"copy"``).
    (plus the :class:`NumericalBreakdownError` attributes; ``detector``
    is always ``"abft"``.)
    """

    def __init__(self, message: str = "", *, phase: str | None = None,
                 panel: int | None = None, site: str | None = None,
                 value: float | None = None, threshold: float | None = None,
                 precision: str | None = None, call_index: int | None = None,
                 row: int | None = None, col: int | None = None,
                 op: str | None = None) -> None:
        super().__init__(message, phase=phase, panel=panel, detector="abft",
                         site=site, value=value, threshold=threshold,
                         precision=precision)
        self.call_index = call_index
        self.row = row
        self.col = col
        self.op = op

    def __str__(self) -> str:
        msg = super().__str__()
        parts = []
        if self.call_index is not None:
            parts.append(f"call_index={self.call_index}")
        if self.row is not None:
            parts.append(f"row={self.row}")
        if self.col is not None:
            parts.append(f"col={self.col}")
        if self.op is not None:
            parts.append(f"op={self.op}")
        if parts:
            return f"{msg} [{', '.join(parts)}]"
        return msg

    def to_dict(self) -> dict:
        d = super().to_dict()
        d["message"] = Exception.__str__(self)
        d.update(call_index=self.call_index, row=self.row, col=self.col,
                 op=self.op)
        return d


class CheckpointCorruptionError(ReproError, RuntimeError):
    """A persisted checkpoint failed an integrity check at load time.

    Raised by :mod:`repro.ckpt` when a checkpoint file is torn (truncated
    mid-write), fails its CRC32 payload checksum, or fails the
    Huang–Abraham ABFT row/column checksums of a stored matrix — anything
    that would otherwise silently feed wrong numbers into a resumed run.

    Attributes
    ----------
    path : str or None
        The offending file.
    field : str or None
        The array or metadata field that failed (e.g. ``"A"``,
        ``"abft:W.row"``, ``"crc"``).
    reason : str or None
        Check that failed: ``"torn"``, ``"crc"``, ``"abft"``,
        ``"missing"``, ``"schema"``, ``"parse"``.
    """

    def __init__(self, message: str = "", *, path: str | None = None,
                 field: str | None = None, reason: str | None = None) -> None:
        super().__init__(message)
        self.path = path
        self.field = field
        self.reason = reason

    def __str__(self) -> str:
        msg = super().__str__()
        parts = []
        if self.path is not None:
            parts.append(f"path={self.path}")
        if self.field is not None:
            parts.append(f"field={self.field}")
        if self.reason is not None:
            parts.append(f"reason={self.reason}")
        if parts:
            return f"{msg} [{', '.join(parts)}]"
        return msg

    def to_dict(self) -> dict:
        """JSON-serializable context (for reports and logs)."""
        return {
            "message": Exception.__str__(self),
            "path": self.path,
            "field": self.field,
            "reason": self.reason,
        }


class CheckpointSchemaError(CheckpointCorruptionError):
    """A checkpoint was written under an incompatible schema version.

    A stale or future schema is handled like corruption (the bytes cannot
    be trusted to mean what the current code assumes), but kept as its
    own type so callers can distinguish "re-record the run" from "the
    disk lied".  ``field`` carries ``"schema"``; the offending version is
    in the message.
    """


class SimulatedCrashError(ReproError, RuntimeError):
    """A crash-fault injection site fired (test harness only).

    Raised by :class:`repro.resilience.crash.CrashInjector` to model a
    process kill / power loss at a named site.  Deliberately *not* a
    :class:`NumericalBreakdownError`: the resilience retry paths must not
    absorb it — it propagates out of the driver exactly like a real crash
    would terminate the process, leaving the checkpoint directory behind
    for a resume.

    Attributes
    ----------
    site : str or None
        The crash site that fired (e.g. ``"ckpt.save.sbr_panel.post"``).
    kind : str or None
        The crash-fault kind (``"kill"``, ``"torn_write"``,
        ``"stale_schema"``).
    """

    def __init__(self, message: str = "", *, site: str | None = None,
                 kind: str | None = None) -> None:
        super().__init__(message)
        self.site = site
        self.kind = kind

    def __str__(self) -> str:
        msg = super().__str__()
        parts = []
        if self.site is not None:
            parts.append(f"site={self.site}")
        if self.kind is not None:
            parts.append(f"kind={self.kind}")
        if parts:
            return f"{msg} [{', '.join(parts)}]"
        return msg


class AdmissionError(ReproError, RuntimeError):
    """The serving layer refused to accept a request (backpressure).

    Raised by :meth:`repro.serve.EvdService.submit` when the request
    cannot be admitted *right now*: the queue is at capacity, the circuit
    breaker is open after repeated worker failures, the worker pool has
    stalled, or the service is shutting down.  This is load shedding at
    the door — the request was never enqueued and the caller should back
    off and retry after ``retry_after`` seconds (when one is given).

    Attributes
    ----------
    reason : str or None
        Why admission was refused: ``"queue_full"``, ``"circuit_open"``,
        ``"stalled"``, ``"shutdown"``, ``"invalid"``.
    retry_after : float or None
        Suggested client backoff in seconds (``None`` when retrying
        cannot help, e.g. an invalid input).
    """

    def __init__(self, message: str = "", *, reason: str | None = None,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after

    def __str__(self) -> str:
        msg = super().__str__()
        parts = []
        if self.reason is not None:
            parts.append(f"reason={self.reason}")
        if self.retry_after is not None:
            parts.append(f"retry_after={self.retry_after:.3f}s")
        if parts:
            return f"{msg} [{', '.join(parts)}]"
        return msg


class JobPreempted(ReproError, RuntimeError):
    """A running serve job was evicted at a committed checkpoint boundary.

    Control-flow exception of the serving layer's preemption protocol:
    the scheduler requests eviction, and the job's preemption token
    raises this at the next ``ckpt.save.*.post`` site — *after* the
    checkpoint is durable — so the worker unwinds with the run directory
    in a resumable state.  Never escapes the serving layer.

    Attributes
    ----------
    reason : str or None
        Why the job was evicted: ``"priority"`` (a higher class needed
        the worker), ``"deadline"`` (the job overran its SLO),
        ``"cancel"``, ``"shutdown"``.
    site : str or None
        The checkpoint site at which the eviction took effect.
    """

    def __init__(self, message: str = "", *, reason: str | None = None,
                 site: str | None = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.site = site

    def __str__(self) -> str:
        msg = super().__str__()
        parts = []
        if self.reason is not None:
            parts.append(f"reason={self.reason}")
        if self.site is not None:
            parts.append(f"site={self.site}")
        if parts:
            return f"{msg} [{', '.join(parts)}]"
        return msg
