"""The per-run resilience orchestrator: wraps engines, records, retries.

One :class:`ResilienceContext` lives for one driver invocation.  It owns

- the :class:`ResilientEngine` (precision-escalation state over a base
  engine) and the one launch guard, :meth:`ResilienceContext.after_launch`
  (fault injection and online ABFT on every matrix multiply; without
  either installed a launch goes straight to the base engine),
- the :class:`~repro.resilience.policy.EscalationLadder` and the retry
  decision (:meth:`ResilienceContext.handle_breakdown`),
- the :class:`~repro.resilience.policy.ResilienceReport` the driver
  attaches to its result,
- the phase/panel stack that gives every raised
  :class:`~repro.errors.NumericalBreakdownError` its context, and
- the obs emission: every detection and escalation is also recorded as a
  zero-duration ``resilience.detect`` / ``resilience.escalate`` span so
  it lands in run manifests next to the phase timeline.

Drivers run every retryable unit (a panel plus its trailing update,
form-Q, a stage) through one loop, :func:`run_unit`: it snapshots the
unit's mutable state once, runs the unit on the phase/panel stack (as
:meth:`unit` does, without a context-manager object), and on a
breakdown asks :meth:`handle_breakdown` whether to restore + retry
(possibly at an escalated precision) or to propagate.  The same snapshot
rolls the state back on ``KeyboardInterrupt`` before the caller's
interrupt flush runs.  Each unit ends with one
:meth:`ResilienceContext.check_array` call, one ``max|x|`` scan per
array it wrote, so a corrupted launch is caught in the unit that retries it.
"""

from __future__ import annotations

import threading
import time
import weakref

import numpy as np

from ..errors import (
    ConfigurationError, NumericalBreakdownError, SdcError, SingularMatrixError,
)
from ..gemm.engine import GemmEngine, make_engine
from ..obs import spans as obs
from ..precision.modes import Precision
from .abft import AbftChecker, AbftPolicy, Syr2kPre
from .detectors import (
    DetectorBank, DetectorConfig, has_nonfinite, panel_orthogonality_defect,
)
from .faults import FaultInjector
from .policy import DetectionRecord, EscalationLadder, EscalationRecord, ResilienceReport

__all__ = ["BREAKDOWN_MODES", "ResilientEngine", "ResilienceContext", "run_unit"]

BREAKDOWN_MODES = ("raise", "escalate", "best_effort")

_maximum = np.maximum.reduce
_minimum = np.minimum.reduce
_INF = float("inf")
#: Largest array :meth:`ResilienceContext.check_array` scans through an
#: ``|x|`` temporary rather than a max and a min reduction.
_ABS_SCAN_BYTES = 1 << 15


class ResilientEngine(GemmEngine):
    """A :class:`~repro.gemm.engine.GemmEngine` that escalates precision.

    The *base* engine implements the run's requested precision policy;
    :meth:`escalate_to` swaps in a safer engine.  The kernel,
    :meth:`prepare_operand`, :attr:`name` and :attr:`precision` follow
    the engine currently in use; :attr:`working_dtype`, :attr:`trace`
    and :attr:`workspace` stay the base engine's, so launches made while
    escalated are recorded in the base trace under the escalated
    engine's name and the stream stays complete.  A launch goes through
    :meth:`ResilienceContext.after_launch` only when that has faults or
    ABFT to apply; otherwise the engine takes the entry points' lean
    path exactly as its base engine would.
    """

    #: The active engine's kernel, rebound per instance by :meth:`_use`.
    _matmul = None

    def __init__(self, base: GemmEngine, ctx: "ResilienceContext") -> None:
        self.base = base
        self._ctx = ctx
        self._lock = threading.Lock()
        self._use(base)
        self._guarded = ctx.abft is not None or ctx.injector is not None
        if not self._guarded:
            # Nothing to apply per launch: every launch, escalated or
            # not, is the base engine's own.
            self._launch = base._launch

    def _use(self, engine: GemmEngine) -> None:
        # Plain attributes rebound here, not resolved on every launch.
        self._active = engine
        if engine is not self.base:
            self._ctx._escalated = True
        self.name = engine.name
        self.precision = engine.precision
        self.prepared_format = engine.prepared_format
        self._matmul = engine._matmul
        self.prepare_operand = engine.prepare_operand

    @property
    def working_dtype(self) -> np.dtype:
        # The *storage* dtype must stay the base policy's: escalation
        # re-runs a unit in wider arithmetic but writes back into the
        # same matrices.
        return self.base.working_dtype

    @property
    def trace(self):
        return self.base.trace

    def reset_trace(self) -> None:
        self.base.reset_trace()

    @property
    def workspace(self):
        return self.base.workspace

    @workspace.setter
    def workspace(self, ws) -> None:
        self.base.workspace = ws

    def _launch(self, call, kernel, a, b, out, alpha=1.0, beta=0.0):
        """Hand the launch to the context's guard.

        Only an engine whose context has faults or ABFT launches through
        here: :meth:`__init__` rebinds every other one to the base
        engine's own launch, so it costs what a bare launch does.
        """
        return self._ctx.after_launch(self, call, kernel, a, b, out, alpha, beta)

    # -- escalation ---------------------------------------------------------
    def escalate_to(self, precision: Precision) -> None:
        """Swap in an engine implementing a safer precision policy."""
        with self._lock:
            if precision is self.base.precision:
                self._use(self.base)
            else:
                self._use(make_engine(precision))

    def restore_base(self) -> None:
        """Return to the run's requested base precision."""
        with self._lock:
            self._use(self.base)

    @property
    def escalated(self) -> bool:
        return self._active is not self.base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"escalated->{self.name}" if self.escalated else "base"
        return f"<ResilientEngine {self.base.name} ({state})>"


class _Unit:
    """Context manager for one retryable unit (see ResilienceContext.unit)."""

    __slots__ = ("_ctx", "phase", "panel")

    def __init__(self, ctx: "ResilienceContext", phase: str, panel: "int | None") -> None:
        self._ctx = ctx
        self.phase = phase
        self.panel = panel

    def __enter__(self) -> "_Unit":
        self._ctx._stack.append((self.phase, self.panel))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        ctx = self._ctx
        ctx._stack.pop()
        if exc_type is None:
            ctx._on_unit_success(self.phase)
        return False


class ResilienceContext:
    """Per-run resilience state: detectors, ladder, injector, report.

    Parameters
    ----------
    on_breakdown : {"escalate", "raise", "best_effort"}
        What to do when a detector fires: retry at escalated precision
        (default), propagate the :class:`NumericalBreakdownError`, or
        escalate and — if even the top of the ladder fails — finish the
        unit with detectors suppressed and record it in the report.
    ladder : EscalationLadder, optional
        Retry budget / widening / stickiness policy.
    detectors : DetectorConfig or DetectorBank, optional
        Which invariant monitors run and how strict they are.
    injector : FaultInjector, optional
        Test-only deterministic fault injection.
    abft : {"off", "detect", "correct"} or AbftPolicy, optional
        Online ABFT over every guarded engine launch
        (:mod:`repro.resilience.abft`).  ``None``/``"off"`` keeps the
        layer out of the hot path entirely.
    """

    def __init__(
        self,
        *,
        on_breakdown: str = "escalate",
        ladder: EscalationLadder | None = None,
        detectors: "DetectorConfig | DetectorBank | None" = None,
        injector: FaultInjector | None = None,
        abft=None,
    ) -> None:
        if on_breakdown not in BREAKDOWN_MODES:
            raise ConfigurationError(
                f"on_breakdown must be one of {BREAKDOWN_MODES}, got {on_breakdown!r}"
            )
        self.mode = on_breakdown
        self.ladder = ladder if ladder is not None else EscalationLadder()
        if isinstance(detectors, DetectorBank):
            self.detectors = detectors
        else:
            self.detectors = DetectorBank(detectors)
        self.injector = injector
        policy = AbftPolicy.from_knob(abft)
        #: AbftChecker or None — the single attribute the launch guard
        #: reads per launch (the zero-overhead-off contract).
        self.abft = AbftChecker(policy) if policy is not None else None
        self.report = ResilienceReport()
        self._stack: list[tuple[str, "int | None"]] = []
        # Weak: each engine refers back to this context, and the base
        # engine it wraps may own the run's workspace arena — a strong
        # cycle would keep that arena alive until the next GC pass.
        self._engines: "weakref.WeakSet[ResilientEngine]" = weakref.WeakSet()
        self._suppress = False
        #: ``detectors.output_limit`` by baseline: a run scans against a
        #: few baselines thousands of times.
        self._limits: "dict[float | None, float]" = {}
        #: ``detectors.panel_q_tol`` by (precision, W dtype, Y dtype,
        #: width): a run checks a few such panels once per step.  The
        #: precision is keyed by ``id``: an enum member is a singleton,
        #: and its ``__hash__`` is a Python call.
        self._panel_tols: "dict[tuple, float]" = {}
        #: Whether an engine of this context may be escalated: only then
        #: does a unit's success look for engines to restore.
        self._escalated = False

    # -- wiring -------------------------------------------------------------
    @property
    def can_retry(self) -> bool:
        return self.mode in ("escalate", "best_effort")

    def wrap_engine(self, engine: GemmEngine) -> ResilientEngine:
        """Wrap a numeric engine for injection + detection + escalation."""
        if isinstance(engine, ResilientEngine):
            return engine
        wrapped = ResilientEngine(engine, self)
        self._engines.add(wrapped)
        return wrapped

    def unit(self, phase: str, *, panel: "int | None" = None) -> _Unit:
        """Enter one retryable unit; gives detector errors their context."""
        return _Unit(self, phase, panel)

    def current_unit(self) -> tuple["str | None", "int | None"]:
        if self._stack:
            return self._stack[-1]
        return None, None

    # -- hooks (called by ResilientEngine and by drivers) --------------------
    def inject(self, site: str, arr: np.ndarray) -> np.ndarray:
        """Pass an array through a driver-level fault-injection site."""
        if self.injector is None:
            return arr
        before = len(self.injector.fired)
        out = self.injector.apply(site, arr)
        for rec in self.injector.fired[before:]:
            self.report.faults_injected.append(rec.to_dict())
            obs.mark("resilience.fault", "repro_resilience_faults_total",
                     **rec.to_dict())
        return out

    def after_launch(self, engine: ResilientEngine, call: tuple, kernel,
                     a, b, out, alpha: float = 1.0, beta: float = 0.0) -> np.ndarray:
        """Run one launch of ``engine`` and guard its result.

        ``call`` is the launch's record fields, ``(m, n, k, tag, engine,
        op, batch)`` (:meth:`GemmEngine._launch
        <repro.gemm.engine.GemmEngine._launch>`).  The launch itself is
        the base engine's (recorded, timed).  Then, in order: faults due
        at the call's tag are injected, and online ABFT verifies the
        result with the checker routine for its op
        (correcting it in correct mode).  A fused ``syr2k`` with
        ``beta != 0`` scales its accumulator away, so its checksums — and,
        in correct mode, a copy for the replay — are taken before the
        launch.
        """
        abft = self.abft
        pre = snapshot = None
        if abft is not None and beta != 0.0:
            pre = Syr2kPre.capture(out)
            if abft.policy.mode == "correct":
                snapshot = np.array(out, copy=True)
        res = engine.base._launch(call, kernel, a, b, out)
        site, op = call[3], call[5]
        res = self.inject(site, res)
        if abft is not None:
            recompute = None
            if abft.policy.mode == "correct":
                def recompute():
                    # Deterministic replay of the same kernel; routed back
                    # through the injector so persistent faults stay visible.
                    buf = None if snapshot is None else np.array(snapshot, copy=True)
                    return self.inject(site, kernel(a, b, buf))
            phase, panel = self.current_unit()
            # Checksums read the multiplied arrays (prepared operands
            # unwrapped).  The launch wrote a temporary when ``out``
            # aliased an operand, so the operands are intact here.
            av = getattr(a, "array", a)
            bv = getattr(b, "array", b)
            kw = dict(precision=engine.precision, site=site, phase=phase,
                      panel=panel, recompute=recompute)
            try:
                if op == "syr2k":
                    res = abft.guard_syr2k(res, av, bv, alpha=alpha, beta=beta,
                                           pre=pre, **kw)
                elif op == "gemm_batched":
                    res = abft.guard_batched(res, av, bv, **kw)
                else:
                    res = abft.guard_gemm(res, av, bv, **kw)
            except SdcError as exc:
                self._record_detection(exc)
                raise
        return res

    def guard_copy(self, site: str, arr: np.ndarray,
                   ref: np.ndarray) -> np.ndarray:
        """Driver hook: ABFT copy guard for data crossing a phase boundary."""
        if self.abft is None:
            return arr
        phase, panel = self.current_unit()
        try:
            return self.abft.guard_copy(arr, ref, site=site, phase=phase,
                                        panel=panel)
        except SdcError as exc:
            self._record_detection(exc)
            raise

    def check_array(self, *arrays: np.ndarray, site: str,
                    precision: Precision = Precision.FP64,
                    baseline=None) -> "float | None":
        """Driver hook: the ``max|x|`` scan of what a unit wrote, per array.

        ``baseline`` is the phase-entry max-norm for ``norm_growth``: one
        for every array, or a sequence with one per array (None: that
        array has no growth bound).  A healthy array costs one ``max|x|``
        pass; only one outside its bound goes through the detector bank,
        which classifies it.  Returns the largest ``max|x|`` (NaN ignored), or
        None while detectors are suppressed.

        The pass gives ``max|x|``, NaN when any entry is.  An array of
        at most ``_ABS_SCAN_BYTES`` takes ``|x|`` and one reduction: a
        panel step's outputs are column blocks of wider buffers, and a
        reduction over such a view pays a short inner loop per row, so
        two of them cost more than one pass writing a cache-sized
        temporary.  A larger array is a max and a min reduction,
        ``max(hi, -lo)``, the same value without an array-sized ``|x|``
        temporary (the band scan's alone is an n×n float64 array, and a
        call's freed transients are what lets the allocator hand pages
        back to the kernel).
        """
        if self._suppress:
            return None
        if not isinstance(baseline, (tuple, list)):
            baseline = (baseline,) * len(arrays)
        limits = self._limits
        top = 0.0
        for arr, base in zip(arrays, baseline, strict=True):
            if arr.size == 0:
                continue
            limit = limits.get(base)
            if limit is None:
                limit = limits[base] = self.detectors.output_limit(base)
            if arr.nbytes <= _ABS_SCAN_BYTES:
                mx = float(_maximum(np.abs(arr), None))
            else:
                hi = float(_maximum(arr, None))
                lo = -float(_minimum(arr, None))
                mx = hi if hi >= lo else lo  # a NaN entry makes both NaN
            if not mx <= limit:
                mx = self._check(self.detectors.check_output, arr, site=site,
                                 precision=precision, baseline=base)
            if mx > top:
                top = mx
        return top

    def check_panel(self, w: np.ndarray, y: np.ndarray, *, precision: Precision) -> None:
        """Driver hook: panel-Q orthogonality drift.

        The bound depends only on the precision, the two dtypes and the
        panel width, so it is computed once per run for each.  A healthy
        panel costs the defect alone; only one past its bound goes through
        the detector bank, which computes the same defect and raises.
        """
        if self._suppress:
            return
        key = (id(precision), w.dtype, y.dtype, w.shape[1])
        tol = self._panel_tols.get(key)
        if tol is None:
            tol = self._panel_tols[key] = self.detectors.panel_q_tol(
                precision, w.shape[1], w.dtype, y.dtype)
        if tol < _INF and not panel_orthogonality_defect(w, y) <= tol:
            self._check(self.detectors.check_panel_q, w, y, precision=precision)

    def check_symmetry(self, a: np.ndarray, *, precision: Precision,
                       norm: "float | None" = None) -> None:
        """Driver hook: symmetry drift of a trailing block (sampled)."""
        self._check(self.detectors.check_symmetry, a, precision=precision,
                    norm=norm)

    def check_residual(self, a: np.ndarray, blocks: list, band: np.ndarray, *,
                       precision: Precision) -> None:
        """Driver hook: sampled factorization-residual probe from the
        reduction's WY blocks."""
        self._check(self.detectors.check_residual, a, blocks, band,
                    precision=precision)

    def _check(self, detector, *args, **kwargs):
        """Run one detector in the current unit's context; record a trip."""
        if self._suppress:
            return None
        phase, panel = self.current_unit()
        try:
            return detector(*args, phase=phase, panel=panel, **kwargs)
        except NumericalBreakdownError as exc:
            self._record_detection(exc)
            raise

    # -- retry decision -----------------------------------------------------
    def handle_breakdown(
        self,
        exc: Exception,
        *,
        engine: "ResilientEngine | None",
        attempt: int,
        phase: str,
        panel: "int | None" = None,
    ) -> bool:
        """Decide whether the failed unit retries (escalating the engine).

        Parameters
        ----------
        exc : Exception
            The breakdown (``NumericalBreakdownError`` or an escalatable
            factorization error like ``SingularMatrixError``).
        engine : ResilientEngine or None
            The unit's engine (None for engine-less stages such as bulge
            chasing, which retry without a precision change).
        attempt : int
            Retries already taken for this unit (0 on first failure).

        Returns
        -------
        bool
            True: restore the checkpoint and re-run the unit.  False:
            propagate ``exc`` to the caller.
        """
        if not self.can_retry:
            return False
        if attempt >= self.ladder.max_retries:
            if self.mode == "best_effort" and not self._suppress:
                # Final pass: top of the ladder, detectors off — return
                # *something* and say so in the report.  Granted at most
                # once per unit: if the suppressed pass *still* fails (a
                # structural guard like a degenerate pivot trips even with
                # detectors off), the error propagates rather than
                # retrying forever.
                if engine is not None:
                    engine.escalate_to(Precision.FP64)
                self._suppress = True
                if phase not in self.report.best_effort:
                    self.report.best_effort.append(phase)
                self.report.retries += 1
                return True
            return False
        self.report.retries += 1
        if engine is not None:
            current = engine.precision
            target = self.ladder.escalate(current, attempt + 1)
            if target is not None:
                engine.escalate_to(target)
                rec = EscalationRecord(
                    phase=phase,
                    from_precision=current.value,
                    to_precision=target.value,
                    attempt=attempt + 1,
                    panel=panel,
                    reason=getattr(exc, "detector", None) or type(exc).__name__,
                )
                self.report.escalations.append(rec)
                obs.mark("resilience.escalate",
                         "repro_resilience_escalations_total", **rec.to_dict())
        wait = self.ladder.delay(attempt + 1)
        if wait > 0.0:
            # Only pauses when the ladder opts into a non-zero backoff base
            # (the serving layer does; in-process retries keep base=0).
            time.sleep(wait)
        return True

    def note_precision(self, phase: str, precision: "Precision | str") -> None:
        """Record the precision a phase finished at (engine-less phases)."""
        name = precision.value if isinstance(precision, Precision) else str(precision)
        self.report.final_precision[phase] = name

    # -- internals ----------------------------------------------------------
    def _record_detection(self, exc: NumericalBreakdownError) -> None:
        rec = DetectionRecord(
            phase=exc.phase or "", detector=exc.detector or "",
            site=exc.site or "", panel=exc.panel,
            value=exc.value, threshold=exc.threshold,
            precision=exc.precision or "",
        )
        self.report.detections.append(rec)
        obs.mark("resilience.detect", "repro_resilience_detections_total",
                 labels={"detector": rec.detector or "unknown"}, **rec.to_dict())

    def _on_unit_success(self, phase: str) -> None:
        self._suppress = False
        if self._escalated and not self.ladder.sticky:
            self._escalated = False
            for eng in self._engines:
                if eng.escalated:
                    eng.restore_base()


def run_unit(ctx: "ResilienceContext | None", phase: str, step, *,
             engine: "ResilientEngine | None" = None, panel: "int | None" = None,
             snapshot=None, on_interrupt=None):
    """Run ``step()`` as one retryable unit and return its result.

    ``snapshot()`` saves the state ``step`` may write and returns a
    callable restoring it (and returning the restored input, or None); it
    is called once, and only when the state can be needed — a retrying
    ``ctx`` or an ``on_interrupt`` flush — so runs without resilience or
    under ``"raise"`` copy nothing.  A ``nonfinite`` breakdown whose
    restored input is itself non-finite propagates without a retry: no
    precision heals a NaN in the input.  Only the failure path scans.  A breakdown
    (``NumericalBreakdownError`` or a singular reconstruction) goes to
    :meth:`ResilienceContext.handle_breakdown`, a ``NumericalBreakdownError``
    without a ``phase`` first given the unit's ``phase``/``panel`` and
    recorded as a detection: retry from the restored
    state, possibly on an escalated ``engine``, or propagate.  A
    ``KeyboardInterrupt`` restores the state, calls ``on_interrupt()``
    (a checkpoint flush) and re-raises.  ``ctx=None`` runs ``step`` once.
    """
    restore = None
    if snapshot is not None and (
            on_interrupt is not None or (ctx is not None and ctx.can_retry)):
        restore = snapshot()
    attempt = 0
    while True:
        try:
            if ctx is None:
                return step()
            # ctx.unit(phase, panel=panel), without its object per unit.
            stack = ctx._stack
            stack.append((phase, panel))
            try:
                out = step()
            finally:
                stack.pop()
            ctx._on_unit_success(phase)
            return out
        except (NumericalBreakdownError, SingularMatrixError) as exc:
            if (ctx is not None and isinstance(exc, NumericalBreakdownError)
                    and exc.phase is None):
                # A breakdown raised outside the detectors (a layer's own
                # finiteness check) gets the unit's context and is recorded
                # like a detector trip.  The detectors, the ABFT guards and
                # an inner unit already gave theirs a phase and recorded it.
                exc.phase = phase
                if exc.panel is None:
                    exc.panel = panel
                ctx._record_detection(exc)
            restored = None
            if restore is not None and getattr(exc, "detector", None) == "nonfinite":
                # A retry cannot heal a unit whose input is non-finite.
                restored = restore()
                if restored is not None and has_nonfinite(restored):
                    raise
            if ctx is None or not ctx.handle_breakdown(
                    exc, engine=engine, attempt=attempt, phase=phase, panel=panel):
                raise
            if restore is not None and restored is None:
                restore()
            attempt += 1
        except KeyboardInterrupt:
            if restore is not None:
                restore()
            if on_interrupt is not None:
                on_interrupt()
            raise
