"""repro.obs — telemetry: phase spans, GEMM events, manifests, reports.

The observability layer of the reproduction (the paper's performance
narrative, made measurable between PRs):

- :mod:`repro.obs.spans` — ``span("sbr.panel")`` context managers with
  wall-clock timing, nesting, and counters; a process-wide collector
  that is a no-op when disabled.
- :mod:`repro.obs.manifest` — JSONL run manifests (spans, GEMM
  aggregates, precision policy, matrix metadata, accuracy probes).
- :mod:`repro.obs.report` — per-phase breakdown tables and phase-level
  regression comparison between two manifests.
- :mod:`repro.obs.record` — one-call instrumented ``syevd_2stage``
  runs (used by the CLI and CI smoke test).
- :mod:`repro.obs.analytics` — the interpretation layer: model-vs-
  measured attribution against the Table-1 rate model, and Chrome-trace
  and flamegraph exporters.
- :mod:`repro.obs.live` — in-flight monitoring: thread-safe metrics
  registry (counters/gauges/quantile sketches), progress + ETA from the
  flop model, background reporter (Prometheus / JSONL / TTY sinks),
  heartbeat health file, and alert rules.

CLI::

    python -m repro.obs run --n 256            # instrumented run → runs/
    python -m repro.obs run --n 256 --live runs/live   # + live monitoring
    python -m repro.obs report runs/X.jsonl    # per-phase breakdown
    python -m repro.obs report --compare A B   # phase delta + regressions
    python -m repro.obs list                   # manifests under runs/
    python -m repro.obs live runs/live         # render live metrics dir
    python -m repro.obs attribution runs/X.jsonl   # model-vs-measured
    python -m repro.obs export --chrome runs/X.jsonl -o trace.json
    python -m repro.obs trace SPOOL_DIR --check    # serve trace continuity

Typical library use::

    from repro import obs, syevd_2stage
    with obs.collect() as session:
        res = syevd_2stage(a, b=16, record_trace=True)
    path = obs.write_manifest(session, trace=res.engine.trace)
    print(obs.render_report(path))

This package deliberately imports only the standard library at module
scope (numeric imports are deferred inside :mod:`repro.obs.record`), so
the GEMM engines and kernels can hook into it without import cycles.
"""

from .tracing import (
    TraceContext,
    check_trace_continuity,
    lifecycle_span,
    load_serve_manifest,
    render_trace_summary,
)
from .spans import (
    Collector,
    GemmEvent,
    Span,
    active_collector,
    collect,
    counter,
    gemm_event,
    is_enabled,
    now,
    span,
)
from .live import (
    AlertRule,
    LiveConfig,
    LiveSession,
    MetricsRegistry,
    NoProgressWatchdog,
    ProgressEstimator,
    QuantileSketch,
    Reporter,
    phase_plan,
    resolve_live,
    use_registry,
)
from .manifest import (
    MIN_SCHEMA_VERSION,
    SCHEMA_VERSION,
    RunManifest,
    load_manifest,
    write_manifest,
)
from .report import compare_phases, render_compare, render_report
from .record import RecordedRun, evd_accuracy_probes, record_syevd
from .analytics import (
    AttributionReport,
    attribute_manifest,
    render_attribution,
    serve_trace_to_chrome,
    to_chrome_trace,
    to_collapsed_stacks,
)

__all__ = [
    "Span",
    "GemmEvent",
    "Collector",
    "collect",
    "span",
    "counter",
    "gemm_event",
    "is_enabled",
    "active_collector",
    "now",
    "TraceContext",
    "lifecycle_span",
    "load_serve_manifest",
    "check_trace_continuity",
    "render_trace_summary",
    "MetricsRegistry",
    "QuantileSketch",
    "ProgressEstimator",
    "phase_plan",
    "Reporter",
    "AlertRule",
    "NoProgressWatchdog",
    "LiveConfig",
    "LiveSession",
    "resolve_live",
    "use_registry",
    "SCHEMA_VERSION",
    "MIN_SCHEMA_VERSION",
    "RunManifest",
    "write_manifest",
    "load_manifest",
    "render_report",
    "render_compare",
    "compare_phases",
    "RecordedRun",
    "record_syevd",
    "evd_accuracy_probes",
    "AttributionReport",
    "attribute_manifest",
    "render_attribution",
    "to_chrome_trace",
    "to_collapsed_stacks",
    "serve_trace_to_chrome",
]
