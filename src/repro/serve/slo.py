"""SLO accounting: per-class error budgets and burn rates.

An SLO here is "fraction of (non-cancelled) jobs in a priority class
that end OK and inside their deadline".  The tracker folds every
terminal job into the live registry:

- ``repro_serve_slo_good_total{priority}`` / ``_bad_total`` — the raw
  tally feeding the budget math;
- ``repro_serve_slo_deadline_hits_total{priority}`` / ``_misses_total``
  — deadline outcomes for jobs that *had* a deadline;
- ``repro_serve_slo_sdc_jobs_total{priority}`` — jobs whose life
  included at least one silent-data-corruption retry (or that failed on
  an :class:`~repro.errors.SdcError`); ``_sdc_bad_total`` — the subset
  that also burned error budget, so SDC-driven badness is separable
  from deadline/overload badness;
- ``repro_serve_slo_burn_rate{priority}`` — observed bad fraction
  divided by the allowed bad fraction ``1 - target`` (1.0 = burning the
  error budget exactly as fast as the objective permits; > 1 = SLO at
  risk);
- ``repro_serve_slo_error_budget_remaining{priority}`` — fraction of
  the run's error budget left (clamped at 0);
- ``repro_serve_ttfa_seconds{priority}`` — time-to-first-attempt
  quantile sketch (admission + queue latency as the client feels it).

The burn rate is run-scoped (whole-soak window), matching the rest of
the service's accounting; a production deployment would window it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SloPolicy", "SloTracker", "DEFAULT_TARGET"]

#: Default per-class success objective (99% of jobs good).
DEFAULT_TARGET = 0.99


@dataclass(frozen=True)
class SloPolicy:
    """Per-priority-class success objectives (fraction of good jobs)."""

    targets: dict = field(default_factory=dict)
    default_target: float = DEFAULT_TARGET

    def target(self, priority: str) -> float:
        t = float(self.targets.get(priority, self.default_target))
        if not 0.0 < t < 1.0:
            raise ValueError(f"SLO target must be in (0, 1), got {t}")
        return t


class SloTracker:
    """Folds terminal jobs into per-class error-budget gauges."""

    def __init__(self, registry, policy: "SloPolicy | None" = None) -> None:
        self.reg = registry
        self.policy = policy if policy is not None else SloPolicy()
        self._good: "dict[str, int]" = {}
        self._bad: "dict[str, int]" = {}

    # -- recording ---------------------------------------------------------
    def record_first_attempt(self, priority: str, ttfa: float) -> None:
        """Observe time-to-first-attempt (called once per job)."""
        self.reg.observe(
            "repro_serve_ttfa_seconds", max(ttfa, 0.0), priority=priority
        )

    def record_terminal(self, job) -> None:
        """Fold one terminal job into the class's budget accounting."""
        r = job.result
        if r is None or r.outcome == "cancelled":
            return  # client cancels don't burn the service's budget
        cls = job.spec.priority
        good = r.ok and not r.deadline_missed
        # getattr: result-shaped objects predating the sdc_retries field
        # (external fakes, persisted records) still account correctly.
        sdc = (getattr(r, "sdc_retries", 0) > 0
               or getattr(r, "error_type", None) == "SdcError")
        if sdc:
            self.reg.inc("repro_serve_slo_sdc_jobs_total", priority=cls)
            if not good:
                self.reg.inc("repro_serve_slo_sdc_bad_total", priority=cls)
        if good:
            self._good[cls] = self._good.get(cls, 0) + 1
            self.reg.inc("repro_serve_slo_good_total", priority=cls)
        else:
            self._bad[cls] = self._bad.get(cls, 0) + 1
            self.reg.inc("repro_serve_slo_bad_total", priority=cls)
        if job.spec.deadline_seconds is not None:
            if r.deadline_missed:
                self.reg.inc(
                    "repro_serve_slo_deadline_misses_total", priority=cls
                )
            else:
                self.reg.inc(
                    "repro_serve_slo_deadline_hits_total", priority=cls
                )
        self._update_gauges(cls)

    def _update_gauges(self, cls: str) -> None:
        good = self._good.get(cls, 0)
        bad = self._bad.get(cls, 0)
        total = good + bad
        if total == 0:
            return
        allowed = 1.0 - self.policy.target(cls)
        burn = (bad / total) / allowed
        self.reg.set("repro_serve_slo_burn_rate", burn, priority=cls)
        self.reg.set(
            "repro_serve_slo_error_budget_remaining",
            max(0.0, 1.0 - burn),
            priority=cls,
        )

    # -- reporting ---------------------------------------------------------
    def rows(self) -> "list[dict]":
        """Per-class summary rows for the soak CLI printout."""
        out = []
        for cls in sorted(set(self._good) | set(self._bad)):
            good = self._good.get(cls, 0)
            bad = self._bad.get(cls, 0)
            total = good + bad
            allowed = 1.0 - self.policy.target(cls)
            burn = (bad / total) / allowed if total else 0.0
            out.append({
                "priority": cls,
                "good": good,
                "bad": bad,
                "target": self.policy.target(cls),
                "burn_rate": burn,
                "error_budget_remaining": max(0.0, 1.0 - burn),
            })
        return out
