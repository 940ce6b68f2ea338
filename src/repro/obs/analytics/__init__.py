"""repro.obs.analytics — interpret telemetry against the performance model.

PR 1's telemetry records *what happened* (spans, GEMM events, manifests);
this package says *what it means*:

- :mod:`~repro.obs.analytics.attribution` — join every measured GEMM
  event to its analytic prediction (the Table-1 rate model of
  :mod:`repro.device.perf_model`), producing per-phase and per-tag
  achieved-vs-modeled efficiency, roofline classification
  (compute- / launch- / bandwidth-bound), and a ranked
  "where the time went vs where the model says it should go" report.
- :mod:`~repro.obs.analytics.export` — turn a session into Chrome-trace
  JSON (``chrome://tracing`` / Perfetto) or collapsed-stack flamegraph
  format.

Timing comparisons between trees are the repository benchmark's job
(``bench/run.py`` and ``bench/compare.py``), not this package's.

Like the rest of ``repro.obs``, module scope imports only the standard
library; the numeric model and solver imports are deferred into the
functions that need them.
"""

from .attribution import (
    AttributionReport,
    attribute_manifest,
    render_attribution,
)
from .export import serve_trace_to_chrome, to_chrome_trace, to_collapsed_stacks

__all__ = [
    "AttributionReport",
    "attribute_manifest",
    "render_attribution",
    "serve_trace_to_chrome",
    "to_chrome_trace",
    "to_collapsed_stacks",
]
