"""Model-vs-measured attribution: join GEMM events to their predictions.

Every measured :class:`~repro.obs.spans.GemmEvent` in a manifest has an
analytic prediction: the Table-1-calibrated
:class:`~repro.device.perf_model.PerfModel` prices its exact shape
(launch latency + max(compute, HBM roofline)).  Joining the two gives,
per phase and per semantic tag:

- **efficiency** — modeled seconds / measured seconds, i.e. the fraction
  of model-predicted speed actually achieved (1.0 = running exactly as
  fast as the model says the A100 would);
- **roofline classification** — which term of the model binds each call:
  ``compute`` (throughput-curve limited), ``launch`` (kernel-launch
  dominated: the small-shape regime the paper's WY transformation
  exists to escape), or ``bandwidth`` (HBM-bound);
- **ranked gaps** — phases ordered by excess measured time over the
  model: "where the time went vs where the model says it should go".

When the manifest's meta carries a ``syevd``-style config (``n``, ``b``,
``nb``, ``method``), the analytic flop counts of
:mod:`repro.metrics.flops` are joined in as well, reporting what share
of the algorithm's total arithmetic is visible through the engine layer
(panel BLAS2 work never routes through ``engine.gemm`` and shows up as
the gap).

The measured numbers here come from NumPy emulation on a CPU, so
absolute efficiencies against the A100 model are tiny; the value is the
*relative* structure (which phase/tag/shape class deviates most), which
is hardware-independent, and the mechanism itself, which transfers to a
real device unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..manifest import RunManifest, load_manifest

__all__ = [
    "ENGINE_MODEL",
    "AttributionReport",
    "attribute_manifest",
    "render_attribution",
]

#: Measured-engine name -> performance-model engine curve.  Engines with
#: no Tensor-Core analogue (float64 reference, the dtype-neutral plain
#: engine) price on the SGEMM curves — the closest SIMT-core proxy.
ENGINE_MODEL = {
    "tc": "tc",
    "ectc": "ectc",
    "sgemm": "sgemm",
    "fp64": "sgemm",
    "plain": "sgemm",
}

#: Operand bytes per element on the model device, by model engine.
_IN_BYTES = {"tc": 2, "sgemm": 4, "ectc": 4}

#: Phase bucket for events recorded outside any span.
UNATTRIBUTED = "(unattributed)"


@dataclass
class AttributionReport:
    """Joined model-vs-measured view of one manifest.

    ``phases`` / ``tags`` hold one dict per phase path / semantic tag:
    ``calls``, ``flops``, ``measured`` and ``modeled`` GEMM seconds,
    ``efficiency`` (modeled/measured), achieved and modeled GFLOP/s, and
    ``bound`` (modeled seconds by roofline class).  Phase rows add
    ``span_seconds`` (total phase wall time) and ``other_seconds``
    (span time not spent inside engine calls: panels, copies, Python).
    ``gaps`` ranks phases by measured-minus-modeled excess.
    """

    label: str
    device: str
    phases: list[dict] = field(default_factory=list)
    tags: list[dict] = field(default_factory=list)
    gaps: list[dict] = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    analytic: dict | None = None
    #: Request trace id from the manifest meta line (None for runs not
    #: belonging to a served request) — the join key between attribution
    #: output and the serving layer's trace timelines.
    trace_id: "str | None" = None


def _event_model(ev: dict, model) -> tuple[float, str]:
    """Modeled seconds and roofline class of one event dict."""
    m, n, k = ev["m"], ev["n"], ev["k"]
    engine = ENGINE_MODEL.get(ev.get("engine", ""), "sgemm")
    in_b = _IN_BYTES[engine]
    if ev.get("op") == "syr2k":
        total = model.syr2k_time(m, k, engine)
        nbytes = in_b * 2.0 * m * k + 2.0 * m * m
    elif ev.get("op") == "gemm_batched":
        # One launch amortized over the whole stack of products.
        batch = ev.get("batch", 1)
        one = model.gemm_time(m, n, k, engine) - model.spec.kernel_launch
        total = model.spec.kernel_launch + batch * one
        nbytes = batch * (in_b * (m * k + k * n) + 4.0 * m * n)
    else:
        total = model.gemm_time(m, n, k, engine)
        nbytes = in_b * (m * k + k * n) + 4.0 * m * n
    launch = model.spec.kernel_launch
    max_term = total - launch
    memory = nbytes / model.spec.hbm_bandwidth
    if launch >= max_term:
        bound = "launch"
    elif memory >= max_term * (1.0 - 1e-12):
        bound = "bandwidth"
    else:
        bound = "compute"
    return total, bound


def _new_slot() -> dict:
    return {
        "calls": 0,
        "flops": 0,
        "measured": 0.0,
        "modeled": 0.0,
        "bound": {"compute": 0.0, "launch": 0.0, "bandwidth": 0.0},
    }


def _finish_slot(slot: dict) -> dict:
    measured, modeled, flops = slot["measured"], slot["modeled"], slot["flops"]
    slot["efficiency"] = modeled / measured if measured > 0 else None
    slot["achieved_gflops"] = flops / measured / 1e9 if measured > 0 else 0.0
    slot["modeled_gflops"] = flops / modeled / 1e9 if modeled > 0 else 0.0
    return slot


def _phase_of(span_path: str, phases: list[str]) -> str:
    for p in phases:
        if span_path == p or span_path.startswith(p + "/"):
            return p
    return UNATTRIBUTED


def _analytic_flops(man: RunManifest, measured_flops: int) -> dict | None:
    """Join the analytic operation counts of ``repro.metrics.flops``.

    Only possible when the manifest's meta records a band-reduction
    config; returns None (silently) otherwise — attribution still works
    on arbitrary sessions.
    """
    from ...sbr.methods import sbr_method

    config = man.meta.get("config") or {}
    matrix = man.meta.get("matrix") or {}
    n, b, nb = matrix.get("n"), config.get("b"), config.get("nb")
    if not (isinstance(n, int) and isinstance(b, int)):
        return None
    try:
        row = sbr_method(config.get("method"))
        if row.takes_nb and not isinstance(nb, int):
            return None
        # The eigensolvers never form stage 1's Q (the back-transform
        # applies its WY blocks), so stage 1's count excludes it.
        analytic = row.flops(n, b, nb, want_q=False)
    except Exception:
        return None  # out-of-range config; analytic join is best-effort
    return {
        "sbr_flops": analytic,
        "measured_gemm_flops": measured_flops,
        "engine_flop_coverage": measured_flops / analytic if analytic else None,
    }


def attribute_manifest(
    manifest: "RunManifest | str",
    *,
    model=None,
) -> AttributionReport:
    """Join every GEMM event in a manifest to its model prediction.

    Parameters
    ----------
    manifest : RunManifest or path
        A manifest with a per-call event stream (``events="full"``).
    model : PerfModel, optional
        The pricing model (default: A100 :class:`~repro.device.perf_model.PerfModel`).

    Returns
    -------
    AttributionReport
    """
    man = manifest if isinstance(manifest, RunManifest) else load_manifest(manifest)
    if model is None:
        from ...device.perf_model import PerfModel

        model = PerfModel()

    phase_order = man.phase_paths()
    phase_times = man.phase_times()
    by_phase: dict[str, dict] = {}
    by_tag: dict[str, dict] = {}
    total = _new_slot()
    for ev in man.gemm_events:
        modeled, bound = _event_model(ev, model)
        flops = 2 * ev["m"] * ev["n"] * ev["k"] * ev.get("batch", 1)
        seconds = ev["seconds"]
        phase = _phase_of(ev.get("span_path", ""), phase_order)
        for slot in (
            by_phase.setdefault(phase, _new_slot()),
            by_tag.setdefault(ev.get("tag", "") or "<untagged>", _new_slot()),
            total,
        ):
            # A batched launch counts as batch-many products, matching
            # gemm_summary / gemm_by_phase and the live registry.
            slot["calls"] += ev.get("batch", 1)
            slot["flops"] += flops
            slot["measured"] += seconds
            slot["modeled"] += modeled
            slot["bound"][bound] += modeled

    phases = []
    for path in phase_order + ([UNATTRIBUTED] if UNATTRIBUTED in by_phase else []):
        slot = _finish_slot(by_phase.get(path, _new_slot()))
        slot["phase"] = path
        slot["span_seconds"] = phase_times.get(path, 0.0)
        slot["other_seconds"] = max(0.0, slot["span_seconds"] - slot["measured"])
        phases.append(slot)

    tags = []
    for tag in sorted(by_tag, key=lambda t: by_tag[t]["measured"], reverse=True):
        slot = _finish_slot(by_tag[tag])
        slot["tag"] = tag
        tags.append(slot)

    gaps = sorted(
        (
            {
                "phase": row["phase"],
                "measured": row["measured"],
                "modeled": row["modeled"],
                "excess": row["measured"] - row["modeled"],
            }
            for row in phases
            if row["calls"]
        ),
        key=lambda g: g["excess"],
        reverse=True,
    )

    return AttributionReport(
        label=man.label,
        device=model.spec.name,
        phases=phases,
        tags=tags,
        gaps=gaps,
        totals=_finish_slot(total),
        analytic=_analytic_flops(man, total["flops"]),
        trace_id=(man.meta.get("trace") or {}).get("trace_id"),
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt_s(s: float) -> str:
    if s >= 1.0:
        return f"{s:.3f} s"
    if s >= 1e-3:
        return f"{s * 1e3:.2f} ms"
    return f"{s * 1e6:.1f} us"


def _fmt_eff(e) -> str:
    return f"{e * 100.0:.2f}%" if e is not None else "-"


def _fmt_bound(bound: dict) -> str:
    total = sum(bound.values())
    if total <= 0:
        return "-"
    top = max(bound, key=lambda k: bound[k])
    return f"{top} ({bound[top] / total * 100.0:.0f}%)"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows])


def render_attribution(report: AttributionReport) -> str:
    """Text rendering of an attribution report (the CLI output)."""
    lines = [
        f"attribution: {report.label or '<unlabeled>'}  model device: {report.device}"
        + (f"  trace: {report.trace_id}" if report.trace_id else ""),
        "efficiency = modeled time / measured time "
        "(100% = exactly the model's predicted speed)",
        "",
        "per phase:",
    ]
    rows = []
    for row in report.phases:
        rows.append([
            row["phase"],
            _fmt_s(row["span_seconds"]),
            str(row["calls"]),
            _fmt_s(row["measured"]),
            _fmt_s(row["modeled"]),
            _fmt_eff(row["efficiency"]),
            _fmt_bound(row["bound"]),
            _fmt_s(row["other_seconds"]),
        ])
    lines.append(_table(
        ["phase", "span", "gemms", "measured", "modeled", "eff", "bound", "non-gemm"],
        rows,
    ))

    if report.tags:
        lines += ["", "per tag:"]
        rows = [
            [
                row["tag"],
                str(row["calls"]),
                _fmt_s(row["measured"]),
                _fmt_s(row["modeled"]),
                _fmt_eff(row["efficiency"]),
                f"{row['achieved_gflops']:.2f}",
                f"{row['modeled_gflops']:.2f}",
                _fmt_bound(row["bound"]),
            ]
            for row in report.tags
        ]
        lines.append(_table(
            ["tag", "calls", "measured", "modeled", "eff",
             "GFLOP/s", "model GFLOP/s", "bound"],
            rows,
        ))

    if report.gaps:
        lines += ["", "where the time went vs where the model says it should go:"]
        for i, gap in enumerate(report.gaps, 1):
            rel = "over" if gap["excess"] >= 0 else "under"
            lines.append(
                f"  {i}. {gap['phase']}: {_fmt_s(abs(gap['excess']))} {rel} model "
                f"(measured {_fmt_s(gap['measured'])}, modeled {_fmt_s(gap['modeled'])})"
            )

    if report.analytic:
        cov = report.analytic.get("engine_flop_coverage")
        lines += [
            "",
            f"analytic check (repro.metrics.flops): SBR requires "
            f"{report.analytic['sbr_flops']:.3e} flops; engine-visible GEMMs "
            f"measured {report.analytic['measured_gemm_flops']:.3e}"
            + (f" ({cov * 100.0:.1f}% through the engine layer)" if cov else ""),
        ]

    t = report.totals
    lines += [
        "",
        f"total: {t['calls']} engine calls, measured {_fmt_s(t['measured'])}, "
        f"modeled {_fmt_s(t['modeled'])}, efficiency {_fmt_eff(t['efficiency'])}",
    ]
    return "\n".join(lines)
