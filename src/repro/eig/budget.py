"""Wall-clock budget guard.

:class:`WallClockBudget` is a hard wall-clock ceiling, checked once per
unit of work, that raises a structured
:class:`~repro.errors.BudgetExceededError` naming the phase, the
iterations completed, the elapsed time, and the configured budget.  The
serving layer maps each job's SLO deadline onto one
(:mod:`repro.serve.job`) and checks it at every attempt boundary
(:mod:`repro.serve.worker`).

Time is read through :func:`repro.obs.spans.now`, so an injected
deterministic clock (the telemetry test fixture) drives budget logic in
tests without real sleeps.

``BudgetExceededError`` subclasses :class:`~repro.errors.ConvergenceError`,
so existing callers that map convergence failures to fallbacks keep
working unchanged; callers that care about the distinction catch the
subclass first.
"""

from __future__ import annotations

from ..errors import BudgetExceededError, ConfigurationError
from ..obs import spans as obs

__all__ = ["WallClockBudget"]


class WallClockBudget:
    """A per-call wall-clock ceiling (``max_seconds=None`` disables it).

    Construct at entry, call :meth:`check` once per iteration::

        budget = WallClockBudget(max_seconds, phase="serve.batch")
        for its in ...:
            budget.check(iterations=its)

    One clock read per check — negligible next to any real iteration.
    """

    __slots__ = ("max_seconds", "phase", "_t0")

    def __init__(self, max_seconds: "float | None", *, phase: str) -> None:
        if max_seconds is not None and not max_seconds > 0:
            raise ConfigurationError(
                f"max_seconds must be positive (or None), got {max_seconds}"
            )
        self.max_seconds = max_seconds
        self.phase = phase
        self._t0 = obs.now() if max_seconds is not None else 0.0

    @property
    def active(self) -> bool:
        return self.max_seconds is not None

    def elapsed(self) -> float:
        """Seconds since construction (0.0 when inactive)."""
        return obs.now() - self._t0 if self.active else 0.0

    def remaining(self) -> "float | None":
        """Seconds left before the ceiling (``None`` when inactive).

        Clamped at 0.0 — a negative remainder means the next
        :meth:`check` raises.  The serving layer uses this to translate
        an SLO deadline into the budget passed down to a solver phase.
        """
        if self.max_seconds is None:
            return None
        return max(0.0, float(self.max_seconds) - self.elapsed())

    @property
    def expired(self) -> bool:
        """True once the ceiling is passed (False when inactive)."""
        return self.active and self.elapsed() > self.max_seconds

    @classmethod
    def until(cls, deadline: "float | None", *, phase: str) -> "WallClockBudget":
        """Budget expiring at absolute time ``deadline`` (obs-clock epoch).

        ``None`` or an already-passed deadline maps to a minimal positive
        budget (1 ms) rather than a disabled one, so the first
        :meth:`check` raises promptly — a job admitted past its SLO
        deadline should fail fast, not run unbounded.
        """
        if deadline is None:
            return cls(None, phase=phase)
        return cls(max(deadline - obs.now(), 1e-3), phase=phase)

    def check(self, *, iterations: "int | None" = None) -> None:
        """Raise :class:`BudgetExceededError` once the ceiling is passed.

        Also ticks the live metrics registry's iteration counter, since
        this is the one hook a budgeted loop calls once per iteration.
        The tick is a no-op without an installed registry, and runs even
        when the budget itself is disabled.
        """
        obs.solver_iteration(self.phase)
        if self.max_seconds is None:
            return
        elapsed = obs.now() - self._t0
        if elapsed > self.max_seconds:
            raise BudgetExceededError(
                f"{self.phase} exceeded its wall-clock budget",
                phase=self.phase, iterations=iterations,
                elapsed=elapsed, budget=float(self.max_seconds),
            )
