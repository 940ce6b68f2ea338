"""Graceful degradation under overload and deadline pressure.

The ladder, cheapest loss first:

1. ``downgrade_precision`` — run at the next-cheaper precision rung
   (``fp64 -> fp32 -> tf32_tc -> fp16_ec_tc -> fp16_tc``).  The
   in-driver escalation ladder still rescues breakdowns, so this trades
   accuracy headroom, not correctness.
2. ``drop_vectors`` — eigenvalues only, skipping both back-transforms
   (the dominant cost for vector-producing runs).
3. ``shed`` — don't run at all.  Applied lowest class first; a shed job
   terminates with outcome ``"shed"`` so the client knows immediately.

Every applied step is recorded on the job (and therefore in its result
and manifest line) — a degraded answer must say it is degraded.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..precision.modes import Precision
from .job import PRIORITIES, Job

__all__ = ["DegradationPolicy", "cheaper_precision"]


def cheaper_precision(precision: str) -> "str | None":
    """Next-cheaper precision rung (None at the bottom / off-ladder).

    The rungs are the escalation ladder from ``fp16_tc`` walked down, so
    ``bf16_tc`` (which escalates to ``tf32_tc``) is off it.
    """
    mode = Precision.from_name(precision)
    ladder = Precision.FP16_TC.ladder()
    if mode not in ladder[1:]:
        return None
    return ladder[ladder.index(mode) - 1].value


@dataclass
class DegradationPolicy:
    """What the service may sacrifice, and when.

    Parameters
    ----------
    overload_threshold : float
        Queue fullness fraction at which overload mode engages.
    shed_classes : tuple
        Priority classes whose *queued* jobs are shed under overload,
        lowest class first.
    downgrade_precision : bool
        Allow running remaining jobs one precision rung cheaper while
        overloaded.
    drop_vectors_on_deadline : bool
        Allow a past-deadline job to run eigenvalues-only instead of
        being shed (applies to classes not in ``shed_classes``).
    """

    overload_threshold: float = 0.8
    shed_classes: tuple = ("batch",)
    downgrade_precision: bool = True
    drop_vectors_on_deadline: bool = True

    def overloaded(self, fullness: float) -> bool:
        return fullness >= self.overload_threshold

    def shed_order(self) -> "tuple[str, ...]":
        """Classes to shed, lowest priority first."""
        return tuple(
            cls for cls in reversed(PRIORITIES) if cls in self.shed_classes
        )

    def apply_overload(self, job: Job) -> bool:
        """Degrade one admitted job for overload; True if it may still run.

        Shed classes return False (the job must be terminated with
        outcome ``"shed"``); other classes get the precision downgrade
        when enabled and policy-compatible.
        """
        if job.spec.priority in self.shed_classes:
            return False
        if self.downgrade_precision:
            cheaper = cheaper_precision(job.precision)
            if cheaper is not None and not job.spec.checkpointed:
                # Checkpointed jobs keep their pinned precision: the run
                # config is part of the checkpoint identity and changing
                # it would forfeit bitwise-identical resume.
                job.add_degradation(
                    "downgrade_precision", "overload",
                    from_precision=job.precision, to_precision=cheaper,
                )
                job.precision = cheaper
        return True

    def apply_deadline_miss(self, job: Job) -> bool:
        """Handle a job that reached the front past its deadline.

        True: run it degraded (eigenvalues only when allowed), marked
        ``deadline_missed``.  False: shed it.
        """
        job.deadline_missed = True
        if job.spec.priority in self.shed_classes:
            return False
        if self.drop_vectors_on_deadline and job.want_vectors:
            job.add_degradation("drop_vectors", "deadline_missed")
            job.want_vectors = False
        return True
