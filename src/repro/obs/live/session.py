"""Turn-key live-monitoring session: registry + estimator + reporter.

:class:`LiveSession` is what the driver's ``live=`` knob builds: one
context manager that installs a registry, attaches a progress estimator
(when a phase plan is known), starts the background reporter with the
standard sink layout under a directory, and on exit stops the reporter,
takes the final registry dump (the manifest ``metrics`` line body), and
uninstalls.

Standard file layout inside ``config.dir``::

    metrics.prom      Prometheus text-exposition snapshot (atomic)
    metrics.jsonl     per-tick JSONL stream (append-only)
    heartbeat.json    health file (atomic)

``resolve_live`` normalizes the user-facing knob: ``True`` (default
directory), a path string, a :class:`LiveConfig`, or an explicit
:class:`~repro.obs.live.registry.MetricsRegistry` (registry-only mode:
no reporter thread, caller owns snapshotting).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .alerts import AlertRule, NoProgressWatchdog
from .health import Heartbeat, read_heartbeat
from .progress import ProgressEstimator
from .registry import MetricsRegistry, install, uninstall
from .reporter import Reporter
from .sinks import JsonlSink, PrometheusSink, TtySink

__all__ = ["LiveConfig", "LiveSession", "resolve_live", "render_live_dir",
           "DEFAULT_LIVE_DIR"]

DEFAULT_LIVE_DIR = os.path.join("runs", "live")

PROM_FILE = "metrics.prom"
JSONL_FILE = "metrics.jsonl"
HEARTBEAT_FILE = "heartbeat.json"


@dataclass
class LiveConfig:
    """User-facing configuration of a live-monitoring session."""

    dir: str = DEFAULT_LIVE_DIR
    interval: float = 1.0
    prometheus: bool = True
    jsonl: bool = True
    tty: bool = False
    heartbeat: bool = True
    rules: tuple = ()
    #: No-progress watchdog threshold; None disables the watchdog.
    no_progress_seconds: "float | None" = 30.0
    #: Quantile-sketch relative accuracy.
    alpha: float = 0.01
    #: Bring-your-own registry (e.g. shared across runs); a fresh one is
    #: created when None.
    registry: "MetricsRegistry | None" = None
    clock: "object | None" = None


class LiveSession:
    """Context manager running the full live-monitoring stack.

    After ``__exit__``, :attr:`dump` holds the final registry dump and
    :attr:`registry` stays readable for assertions.
    """

    def __init__(self, config: "LiveConfig | None" = None,
                 plan: "dict | None" = None) -> None:
        self.config = config if config is not None else LiveConfig()
        self.plan = plan
        self.registry: "MetricsRegistry | None" = None
        self.estimator: "ProgressEstimator | None" = None
        self.reporter: "Reporter | None" = None
        self.dump: "dict | None" = None
        self._prev = None

    def __enter__(self) -> "LiveSession":
        cfg = self.config
        reg = cfg.registry
        if reg is None:
            reg = MetricsRegistry(clock=cfg.clock, alpha=cfg.alpha)
        self.registry = reg
        if self.plan:
            self.estimator = ProgressEstimator(self.plan)
            self.estimator.attach(reg)
        sinks = []
        if cfg.prometheus:
            sinks.append(PrometheusSink(os.path.join(cfg.dir, PROM_FILE)))
        if cfg.jsonl:
            sinks.append(JsonlSink(os.path.join(cfg.dir, JSONL_FILE)))
        if cfg.tty:
            sinks.append(TtySink())
        heartbeat = (
            Heartbeat(os.path.join(cfg.dir, HEARTBEAT_FILE))
            if cfg.heartbeat else None
        )
        watchdog = (
            NoProgressWatchdog(stall_seconds=cfg.no_progress_seconds)
            if cfg.no_progress_seconds is not None else None
        )
        self.reporter = Reporter(
            reg, interval=cfg.interval, sinks=sinks, heartbeat=heartbeat,
            rules=cfg.rules, watchdog=watchdog, estimator=self.estimator,
        )
        self._prev = install(reg)
        if sinks or heartbeat is not None or cfg.rules or watchdog is not None:
            # Registry-only sessions have nothing to publish between
            # ticks; the final tick on exit still runs.
            self.reporter.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.reporter is not None:
            self.reporter.stop(final_tick=True)
        uninstall(self._prev)
        if self.registry is not None:
            self.dump = self.registry.dump()
            if self.estimator is not None:
                self.dump["progress"] = self.estimator.snapshot()


class _NullLiveSession:
    """No-op stand-in so the driver can always write ``with session:``."""

    registry = None
    estimator = None
    reporter = None
    dump = None

    def __enter__(self) -> "_NullLiveSession":
        return self

    def __exit__(self, *exc) -> None:
        return None


def resolve_live(live, plan: "dict | None" = None):
    """Normalize the driver's ``live=`` knob into a session context.

    Accepts ``None``/``False`` (off), ``True`` (defaults), a directory
    path, a :class:`LiveConfig`, a :class:`MetricsRegistry` (wrapped in
    a reporterless config so only in-memory aggregation happens), or an
    existing :class:`LiveSession`.
    """
    if live is None or live is False:
        return _NullLiveSession()
    if isinstance(live, LiveSession):
        live.plan = live.plan or plan
        return live
    if isinstance(live, MetricsRegistry):
        cfg = LiveConfig(prometheus=False, jsonl=False, heartbeat=False,
                         no_progress_seconds=None, registry=live)
        return LiveSession(cfg, plan=plan)
    if live is True:
        return LiveSession(LiveConfig(), plan=plan)
    if isinstance(live, (str, os.PathLike)):
        return LiveSession(LiveConfig(dir=os.fspath(live)), plan=plan)
    if isinstance(live, LiveConfig):
        return LiveSession(live, plan=plan)
    raise TypeError(f"cannot interpret live={live!r}")


def render_live_dir(directory) -> str:
    """Human-readable rendering of a live-monitoring directory.

    Used by ``python -m repro.obs live DIR``: shows the heartbeat (age,
    phase, progress, ETA, workers, alerts) and the key series of the
    Prometheus snapshot.  Works on both in-flight and finished runs.
    """
    import time

    directory = os.fspath(directory)
    lines = [f"live metrics @ {directory}"]
    hb = read_heartbeat(os.path.join(directory, HEARTBEAT_FILE))
    if hb is None:
        lines.append("  heartbeat: (absent)")
    else:
        age = max(time.time() - hb.get("updated", 0.0), 0.0)
        lines.append(
            f"  heartbeat: beat #{hb.get('beats', 0)} {age:.1f}s ago  "
            f"pid={hb.get('pid')}  uptime={hb.get('uptime', 0.0):.2f}s"
        )
        lines.append(
            f"  phase: {hb.get('phase') or '-'}  "
            f"last_progress_age={hb.get('last_progress_age', 0.0):.2f}s"
        )
        if hb.get("progress") is not None:
            eta = hb.get("eta_seconds")
            eta_s = f"{eta:.1f}s" if eta is not None else "n/a"
            lines.append(
                f"  progress: {hb['progress'] * 100.0:.1f}%  eta={eta_s}"
            )
        for name, info in sorted(hb.get("phases", {}).items()):
            lines.append(
                f"    {name:<16} {info['fraction'] * 100.0:6.1f}%"
            )
        workers = hb.get("workers", {})
        if workers:
            lines.append("  workers (idle seconds):")
            for name, idle in sorted(workers.items()):
                lines.append(f"    {name:<24} {idle:8.2f}")
        for alert in hb.get("alerts", []):
            lines.append(
                f"  ALERT {alert.get('rule')}: {alert.get('message')}"
            )
    prom_path = os.path.join(directory, PROM_FILE)
    if os.path.exists(prom_path):
        with open(prom_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        keep = ("repro_gemm_latency_seconds", "repro_gemm_flops_total",
                "repro_progress_fraction", "repro_eta_seconds",
                "repro_ws_takes_total")
        lines.append("  key series:")
        for line in text.splitlines():
            if line.startswith(keep):
                lines.append(f"    {line}")
    return "\n".join(lines) + "\n"
