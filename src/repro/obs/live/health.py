"""Heartbeat/health file: run liveness observable from outside the process.

A single JSON file, atomically replaced on every reporter tick, holding
everything an external supervisor needs to decide whether a long run is
alive: wall-clock update time, a monotonically increasing beat counter,
the current phase, progress fraction and ETA, the age of the last
observed forward progress, per-worker-thread liveness (serve worker
threads show up by name), and any fired alerts.

Atomic replace (:func:`repro.ioutils.atomic_write_json`) means a reader
never sees a torn file; ``fsync=False`` because a heartbeat is advisory
— losing the last beat in a power failure is fine, blocking the reporter
thread on disk flushes every tick is not.
"""

from __future__ import annotations

import os
import time

from ...ioutils import atomic_write_json

__all__ = ["Heartbeat", "read_heartbeat"]


class Heartbeat:
    """Writes the health file.  ``wall_clock`` is injectable for tests."""

    def __init__(self, path, wall_clock=None) -> None:
        self.path = os.fspath(path)
        self.wall_clock = wall_clock if wall_clock is not None else time.time
        self.beats = 0

    def beat(self, registry, estimator=None) -> dict:
        """Write one heartbeat from current registry state; returns the
        payload (handy for tests and the TTY sink)."""
        self.beats += 1
        now = registry.clock()
        payload = {
            "pid": os.getpid(),
            "updated": self.wall_clock(),
            "beats": self.beats,
            "uptime": registry.uptime(),
            "phase": registry.phase,
            "phase_path": registry.phase_path,
            "last_progress_age": max(now - registry.last_progress, 0.0),
            "workers": registry.worker_ages(),
            "alerts": [dict(a) for a in registry.alerts],
        }
        if estimator is not None:
            prog = estimator.snapshot()
            payload["progress"] = prog["fraction"]
            payload["eta_seconds"] = prog["eta_seconds"]
            payload["phases"] = prog["phases"]
        atomic_write_json(self.path, payload, fsync=False)
        return payload


def read_heartbeat(path) -> "dict | None":
    """Load a heartbeat file; None when absent or unreadable (a reader
    racing the very first beat should treat that as 'not started')."""
    import json

    try:
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None
