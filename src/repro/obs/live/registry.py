"""Thread-safe live metrics registry: the in-flight view of the stream.

The registry is one of the two consumers of the telemetry stream of
:mod:`repro.obs.spans`; the :class:`~repro.obs.spans.Collector` is the
other.  Where the collector records *events for post-hoc analysis*, the
registry maintains *current aggregates* — counters, gauges, and
quantile-sketch histograms — that a background
:class:`~repro.obs.live.reporter.Reporter` can snapshot while the solver
is still running.

There is one activation slot, one span stack and one call per
instrumented site, all in :mod:`repro.obs.spans`: a site (engine GEMM
launch, workspace arena, resilience detectors, checkpoint store, budget
iteration checks) calls its hook there, and the hook hands it to the
installed registry's domain method (:meth:`MetricsRegistry.record_gemm`,
:meth:`~MetricsRegistry.ws_take`, ...) and to the installed collector.
With nothing installed the hook is one module read.  :func:`install`,
:func:`uninstall`, :class:`use_registry` and :func:`active_registry`
are that slot's registry side, re-exported here.

Metric naming follows Prometheus conventions (``repro_*_total`` for
counters, base units in the name, label sets as keyword arguments), so
the text-exposition sink is a direct transcription of registry state.
"""

from __future__ import annotations

import threading
import time

from ..spans import active_registry, install, uninstall, use_registry
from .sketch import QuantileSketch

__all__ = [
    "MetricsRegistry",
    "active_registry",
    "is_enabled",
    "install",
    "uninstall",
    "use_registry",
]

# Label sets are stored as sorted (key, value) tuples so the same labels
# in any kwarg order hit the same series.
LabelKey = tuple  # (name, ((k, v), ...))


def _key(name: str, labels: dict) -> LabelKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted(labels.items())))


class MetricsRegistry:
    """Counters, gauges, and quantile histograms behind one lock.

    Parameters
    ----------
    clock : callable, optional
        Monotonic time source (seconds).  Injectable for deterministic
        tests, same convention as ``Collector(clock=...)``.  Defaults to
        :func:`time.perf_counter`.
    alpha : float
        Relative accuracy of the quantile sketches.
    """

    def __init__(self, clock=None, alpha: float = 0.01) -> None:
        self.clock = clock if clock is not None else time.perf_counter
        self.alpha = alpha
        self.epoch = self.clock()
        # RLock: the progress estimator updates gauges from inside
        # record_gemm / span callbacks, which already hold the lock.
        self._lock = threading.RLock()
        self._counters: dict[LabelKey, float] = {}
        self._gauges: dict[LabelKey, float] = {}
        self._hists: dict[LabelKey, QuantileSketch] = {}
        self.alerts: list[dict] = []
        self.estimator = None  # ProgressEstimator, attached by the session
        # Worker liveness: thread name -> last activity time (registry
        # clock).  Fed by every hook, so every thread that does work
        # shows up as soon as it does.
        self._workers: dict[str, float] = {}
        # Current phase (leaf name of the innermost depth<=1 span) and
        # the last time any forward progress was observed — the
        # no-progress watchdog reads these.
        self._phase = ""
        self._phase_path = ""
        self.last_progress = self.epoch

    # ------------------------------------------------------------------
    # primitive instruments
    # ------------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set(self, name: str, value: float, **labels) -> None:
        key = _key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, count: int = 1, **labels) -> None:
        key = _key(name, labels)
        with self._lock:
            sk = self._hists.get(key)
            if sk is None:
                sk = self._hists[key] = QuantileSketch(alpha=self.alpha)
            sk.add(value, count=count)

    def counter_value(self, name: str, **labels) -> float:
        with self._lock:
            return self._counters.get(_key(name, labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all label sets."""
        with self._lock:
            return sum(v for (n, _), v in self._counters.items() if n == name)

    def gauge_value(self, name: str, **labels):
        with self._lock:
            return self._gauges.get(_key(name, labels))

    def histogram(self, name: str, **labels) -> "QuantileSketch | None":
        with self._lock:
            return self._hists.get(_key(name, labels))

    def histogram_merged(self, name: str) -> QuantileSketch:
        """Merge every label set of histogram ``name`` into one sketch."""
        out = QuantileSketch(alpha=self.alpha)
        with self._lock:
            for (n, _), sk in self._hists.items():
                if n == name:
                    out.merge(sk)
        return out

    # ------------------------------------------------------------------
    # domain hooks
    # ------------------------------------------------------------------

    def record_gemm(self, m: int, n: int, k: int, *, tag: str = "",
                    engine: str = "", op: str = "gemm", batch: int = 1,
                    seconds: float = 0.0) -> None:
        """One engine-level GEMM launch (a batched launch of ``batch``
        products counts as ``batch`` samples at per-product latency —
        the batch-aware aggregation contract)."""
        batch = max(int(batch), 1)
        flops = 2.0 * m * n * k * batch
        per_product = seconds / batch
        now = self.clock()
        with self._lock:
            self.inc("repro_gemm_calls_total", 1.0, op=op)
            self.inc("repro_gemm_products_total", float(batch), op=op)
            self.inc("repro_gemm_flops_total", flops)
            self.inc("repro_gemm_seconds_total", seconds)
            self.observe("repro_gemm_latency_seconds", per_product,
                         count=batch, op=op)
            self.last_progress = now
            self._workers[threading.current_thread().name] = now
            est = self.estimator
            # Estimator state mutates under the registry RLock so
            # concurrent recorder threads cannot race `done`; its gauge
            # writes re-enter the same lock harmlessly.
            if est is not None:
                est.on_work(self._phase, flops, now)

    def ws_take(self, tag: str, hit: bool, nbytes: int) -> None:
        """Workspace arena request (hit = served from pool)."""
        result = "hit" if hit else "miss"
        with self._lock:
            self.inc("repro_ws_takes_total", 1.0, result=result)
            if not hit:
                self.inc("repro_ws_bytes_allocated_total", float(nbytes))

    def ckpt_saved(self, step: str, nbytes: int) -> None:
        """One checkpoint written at ``step``."""
        with self._lock:
            self.inc("repro_ckpt_saves_total", step=step)
            self.inc("repro_ckpt_bytes_total", float(nbytes))

    def solver_iteration(self, phase: str) -> None:
        """One iteration of a budgeted loop (forward progress)."""
        with self._lock:
            self.inc("repro_solver_iterations_total", phase=phase)
            self.mark_progress()

    def mark_progress(self) -> None:
        with self._lock:
            self.last_progress = self.clock()

    def touch_worker(self, name: "str | None" = None) -> None:
        if name is None:
            name = threading.current_thread().name
        with self._lock:
            self._workers[name] = self.clock()

    # ------------------------------------------------------------------
    # span integration (phase tracking)
    # ------------------------------------------------------------------

    def span_started(self, path: str, depth: int) -> None:
        """Called by the span layer on entry.  Depth <= 1 spans define
        the *current phase* (leaf name of the path) for progress
        attribution and the heartbeat."""
        now = self.clock()
        leaf = path.rsplit("/", 1)[-1]
        with self._lock:
            self._workers[threading.current_thread().name] = now
            if depth <= 1:
                self._phase = leaf
                self._phase_path = path
                est = self.estimator
                if est is not None:
                    est.on_phase_start(leaf, now)

    def span_finished(self, path: str, depth: int, duration: float) -> None:
        now = self.clock()
        leaf = path.rsplit("/", 1)[-1]
        with self._lock:
            if depth <= 1:
                self.observe("repro_phase_seconds", duration, phase=leaf)
                self.last_progress = now
                if self._phase == leaf:
                    parent = path.rsplit("/", 1)[0] if "/" in path else ""
                    self._phase = parent.rsplit("/", 1)[-1]
                    self._phase_path = parent
                est = self.estimator
                if est is not None:
                    est.on_phase_end(leaf, now)

    @property
    def phase(self) -> str:
        return self._phase

    @property
    def phase_path(self) -> str:
        return self._phase_path

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def worker_ages(self) -> dict:
        """Thread name -> seconds since last observed activity."""
        now = self.clock()
        with self._lock:
            return {name: max(now - t, 0.0) for name, t in self._workers.items()}

    def progress_age(self) -> float:
        """Seconds since the last recorded forward progress.

        The serving layer's admission controller reads this as its
        health signal: a registry whose solvers have stopped ticking is
        a wedged pool, and new work should be rejected rather than
        queued behind it.
        """
        now = self.clock()
        with self._lock:
            return max(now - self.last_progress, 0.0)

    def stalled_workers(self, max_age: float) -> list:
        """Worker threads silent for longer than ``max_age`` seconds."""
        return sorted(
            name for name, age in self.worker_ages().items() if age > max_age
        )

    def fire_alert(self, alert: dict) -> None:
        with self._lock:
            self.alerts.append(dict(alert))

    def uptime(self) -> float:
        return self.clock() - self.epoch

    def snapshot(self) -> dict:
        """Point-in-time JSON-serializable view of every series."""
        now = self.clock()
        with self._lock:
            counters = [
                {"name": n, "labels": dict(lbls), "value": v}
                for (n, lbls), v in sorted(self._counters.items())
            ]
            gauges = [
                {"name": n, "labels": dict(lbls), "value": v}
                for (n, lbls), v in sorted(self._gauges.items())
            ]
            hists = [
                {"name": n, "labels": dict(lbls), **sk.summary()}
                for (n, lbls), sk in sorted(self._hists.items())
            ]
            return {
                "uptime": now - self.epoch,
                "phase": self._phase,
                "phase_path": self._phase_path,
                "last_progress_age": max(now - self.last_progress, 0.0),
                "counters": counters,
                "gauges": gauges,
                "histograms": hists,
                "workers": {
                    name: max(now - t, 0.0) for name, t in self._workers.items()
                },
                "alerts": [dict(a) for a in self.alerts],
            }

    def dump(self) -> dict:
        """Final archive form: the manifest ``metrics`` line body."""
        snap = self.snapshot()
        snap["alpha"] = self.alpha
        return snap


def is_enabled() -> bool:
    """Whether a live registry is installed."""
    return active_registry() is not None
