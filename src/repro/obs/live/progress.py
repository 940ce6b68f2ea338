"""Progress fraction and ETA from the flop model plus measured throughput.

The two-stage EVD has a *predictable* work profile: the symbolic trace /
Table-1 closed forms (:mod:`repro.metrics.flops`) give total flops per
phase before the run starts.  The :class:`ProgressEstimator` combines
that plan with throughput measured from live GEMM events:

* within a phase, completed work is the engine-visible flops recorded so
  far (capped at the phase plan — the model is a prediction, not an
  invariant);
* a phase that ends snaps to 100% regardless of how much of its work was
  engine-visible (bulge chasing and the tridiagonal solve do most of
  their arithmetic outside the GEMM wrapper);
* ETA = remaining planned work / cumulative throughput, where throughput
  is total completed work over elapsed time since the first work event.

Cumulative (not instantaneous) throughput makes the ETA *monotone
non-increasing under a constant work rate* — the property the fake-clock
tests pin down — at the cost of slower adaptation to rate changes.  The
estimator publishes ``repro_progress_fraction{phase=...}`` and
``repro_eta_seconds`` gauges on the registry it is attached to.
"""

from __future__ import annotations

__all__ = ["ProgressEstimator", "phase_plan"]


def phase_plan(n: int, b: int = 16, nb: "int | None" = None,
               method: str = "wy", want_vectors: bool = True) -> dict:
    """Predicted work units (flops) per driver phase for one EVD run.

    SBR and stage-2 bulge chasing use the analytic counts from
    :mod:`repro.metrics.flops`, summed over each algorithm's actual loop
    structure; the later phases use
    standard operation counts (divide-and-conquer with vectors is
    ``O(n^3)``-dominated by its back-substitution GEMMs; the explicit
    back-transform is two dense ``n^3`` products).  Rough weights are
    fine: the estimator only needs relative phase sizes, and measured
    throughput does the rest.
    """
    from ...metrics import flops as _flops
    from ...sbr.methods import default_nb, sbr_method

    nb_eff = nb if nb is not None else default_nb(b)
    sbr = sbr_method(method).flops(n, b, nb_eff, want_q=want_vectors)
    plan = {"sbr": float(max(sbr, 1.0))}
    plan["bulge"] = float(max(
        _flops.bulge_wavefront_flops(n, b, want_q=want_vectors), 1.0
    ))
    if want_vectors:
        tridiag = (4.0 / 3.0) * n ** 3
    else:
        tridiag = 20.0 * n * n
    plan["tridiag_solve"] = float(max(tridiag, 1.0))
    if want_vectors:
        plan["back_transform"] = float(2.0 * 2.0 * n ** 3)
    return plan


class ProgressEstimator:
    """Tracks per-phase completed work against a predicted plan.

    Parameters
    ----------
    plan : dict
        Phase name (leaf span name, e.g. ``"sbr"``) -> predicted work in
        arbitrary consistent units (flops).
    clock : callable, optional
        Only used as a fallback when callers do not pass explicit
        timestamps; the registry always passes its own clock's ``now``.
    """

    def __init__(self, plan: dict, clock=None) -> None:
        self.plan = {str(k): float(v) for k, v in plan.items()}
        self.total = sum(self.plan.values())
        self.done: dict[str, float] = {k: 0.0 for k in self.plan}
        self.clock = clock
        self.registry = None
        self._t_first: "float | None" = None
        self._t_last: "float | None" = None
        self.current: "str | None" = None

    # ------------------------------------------------------------------
    # event feed (called by MetricsRegistry under its lock)
    # ------------------------------------------------------------------

    def attach(self, registry) -> None:
        """Subscribe to a registry's GEMM/span events and publish gauges
        on it."""
        self.registry = registry
        registry.estimator = self
        self._publish()

    def on_phase_start(self, phase: str, t: float) -> None:
        if phase in self.plan:
            self.current = phase
            self._note_time(t)
            self._publish()

    def on_phase_end(self, phase: str, t: float) -> None:
        if phase in self.plan:
            self.done[phase] = self.plan[phase]
            if self.current == phase:
                self.current = None
            self._note_time(t)
            self._publish()

    def on_work(self, phase: str, amount: float, t: float) -> None:
        """Engine-visible work completed (flops).  Attributed to
        ``phase`` when it is in the plan, else to the current phase."""
        target = phase if phase in self.plan else self.current
        if target is None:
            return
        self._note_time(t)
        self.done[target] = min(self.done[target] + amount, self.plan[target])
        self._publish()

    def _note_time(self, t: float) -> None:
        if self._t_first is None:
            self._t_first = t
        self._t_last = t

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def fraction(self, phase: "str | None" = None) -> float:
        """Completed fraction of one phase, or of the whole run."""
        if phase is not None:
            planned = self.plan.get(phase, 0.0)
            return self.done.get(phase, 0.0) / planned if planned else 0.0
        return sum(self.done.values()) / self.total if self.total else 0.0

    def throughput(self) -> float:
        """Cumulative work rate (units/second); 0.0 before two events."""
        if self._t_first is None or self._t_last is None:
            return 0.0
        elapsed = self._t_last - self._t_first
        if elapsed <= 0.0:
            return 0.0
        return sum(self.done.values()) / elapsed

    def eta_seconds(self, phase: "str | None" = None) -> "float | None":
        """Estimated seconds of work remaining; None before any
        throughput signal exists."""
        rate = self.throughput()
        if rate <= 0.0:
            return None
        if phase is not None:
            remaining = self.plan.get(phase, 0.0) - self.done.get(phase, 0.0)
        else:
            remaining = self.total - sum(self.done.values())
        return max(remaining, 0.0) / rate

    def snapshot(self) -> dict:
        eta = self.eta_seconds()
        return {
            "fraction": self.fraction(),
            "eta_seconds": eta,
            "current_phase": self.current,
            "phases": {
                k: {"planned": self.plan[k], "done": self.done[k],
                    "fraction": self.fraction(k)}
                for k in self.plan
            },
        }

    # ------------------------------------------------------------------
    # gauge publication
    # ------------------------------------------------------------------

    def _publish(self) -> None:
        reg = self.registry
        if reg is None:
            return
        for k in self.plan:
            reg.set("repro_progress_fraction", self.fraction(k), phase=k)
        reg.set("repro_progress_fraction", self.fraction(), phase="total")
        eta = self.eta_seconds()
        if eta is not None:
            reg.set("repro_eta_seconds", eta, phase="total")
            if self.current is not None:
                reg.set("repro_eta_seconds", self.eta_seconds(self.current),
                        phase=self.current)
