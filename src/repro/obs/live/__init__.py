"""Live metrics, progress/ETA, and health monitoring (`repro.obs.live`).

In-flight counterpart of the post-hoc span/manifest pipeline: a
thread-safe :class:`~repro.obs.live.registry.MetricsRegistry` aggregates
counters, gauges, and quantile-sketch histograms while the solver runs;
a :class:`~repro.obs.live.progress.ProgressEstimator` turns the flop
model plus measured throughput into completed-fraction and ETA; a
background :class:`~repro.obs.live.reporter.Reporter` publishes
snapshots to Prometheus/JSONL/TTY sinks and a heartbeat health file,
and evaluates alert rules (thresholds + no-progress watchdog).

The registry and the span collector are two views of one telemetry
stream (:mod:`repro.obs.spans`): one activation slot, one span stack,
and one call per instrumented site, fanned out to whichever of the two
is installed.  With neither installed every hook is one module read
plus a ``None`` check.

Typical use is through the driver knob::

    from repro.eig import syevd_2stage
    w, v, res = syevd_2stage(a, live="runs/live")     # full stack
    print(res.metrics["histograms"])                  # final dump

or registry-only (no reporter thread), e.g. around a timed loop::

    from repro.obs.live import MetricsRegistry, use_registry
    reg = MetricsRegistry()
    with use_registry(reg):
        run()
    p99 = reg.histogram_merged("repro_gemm_latency_seconds").quantile(0.99)
"""

from .alerts import AlertRule, NoProgressWatchdog, evaluate_alerts
from .health import Heartbeat, read_heartbeat
from .progress import ProgressEstimator, phase_plan
from .registry import (
    MetricsRegistry,
    active_registry,
    install,
    is_enabled,
    uninstall,
    use_registry,
)
from .reporter import Reporter
from .session import (
    DEFAULT_LIVE_DIR,
    LiveConfig,
    LiveSession,
    render_live_dir,
    resolve_live,
)
from .sinks import (
    JsonlSink,
    PrometheusSink,
    TtySink,
    parse_prometheus,
    render_prometheus,
    validate_metrics_stream,
)
from .sketch import QuantileSketch

__all__ = [
    "MetricsRegistry",
    "QuantileSketch",
    "ProgressEstimator",
    "phase_plan",
    "Reporter",
    "Heartbeat",
    "read_heartbeat",
    "AlertRule",
    "NoProgressWatchdog",
    "evaluate_alerts",
    "PrometheusSink",
    "JsonlSink",
    "TtySink",
    "render_prometheus",
    "parse_prometheus",
    "validate_metrics_stream",
    "LiveConfig",
    "LiveSession",
    "resolve_live",
    "render_live_dir",
    "DEFAULT_LIVE_DIR",
    "active_registry",
    "is_enabled",
    "install",
    "uninstall",
    "use_registry",
]
