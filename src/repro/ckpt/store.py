"""Durable checkpoint store: versioned, checksummed, atomically committed.

One :class:`CheckpointManager` owns one *run directory* — the durable
identity of a long EVD run.  The directory is fully self-contained: the
input matrix, the run configuration, and a sequence of checkpoints, so a
crashed or preempted process can be resumed by any later process from the
directory alone (``python -m repro.ckpt resume <run_dir>``).

Layout::

    <run_dir>/
      run.json                    run header: schema, config, input digest
      input.npz                   the input matrix (array "a")
      ckpt-<seq>-<step>.npz       checkpoint payload (NumPy arrays, exact bits)
      ckpt-<seq>-<step>.json      commit record: schema, step, scalars,
                                  payload CRC32, per-array ABFT signatures

Commit protocol (crash-safe ordering):

1. the ``.npz`` payload is written via tempfile + ``os.replace``;
2. the ``.json`` commit record — containing the payload's CRC32 — is
   written the same way, *after* the payload is durable.

A checkpoint exists only once its commit record does; a crash between the
two steps leaves an orphan payload the loader ignores.  At load time the
payload CRC and the Huang–Abraham ABFT row/column checksums
(:mod:`repro.resilience.abft`) are verified, so torn writes and silent
corruption surface as a structured
:class:`~repro.errors.CheckpointCorruptionError` naming the file and
field — never as wrong numbers in a resumed run.

Steps written by the drivers, in pipeline order: ``sbr_panel`` (many, one
per panel iteration — pruned to the most recent few), then the phase
boundaries ``band``, ``tridiag``, ``trieig``, ``result`` (kept forever).
"""

from __future__ import annotations

import io
import json
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    CheckpointCorruptionError,
    CheckpointSchemaError,
    ConfigurationError,
)
from ..ioutils import atomic_write_bytes, atomic_write_json, file_crc32, sweep_orphans
from ..obs import spans as obs
from ..resilience.abft import abft_signature, verify_abft

__all__ = [
    "CKPT_SCHEMA_VERSION",
    "PHASE_STEPS",
    "CheckpointConfig",
    "Checkpoint",
    "CheckpointReport",
    "CheckpointManager",
    "resilience_snapshot",
    "restore_resilience",
]

CKPT_SCHEMA_VERSION = 1

#: Phase-boundary steps, in pipeline order.  ``sbr_panel`` checkpoints
#: precede all of them and are pruned once ``band`` lands.
PHASE_STEPS = ("band", "tridiag", "trieig", "result")

_CKPT_RE = re.compile(r"^ckpt-(\d{6})-([a-z0-9_]+)\.json$")


@dataclass(frozen=True)
class CheckpointConfig:
    """How (and where) a run checkpoints itself.

    Parameters
    ----------
    run_dir : str
        The run directory (created on first use).
    every : int
        Checkpoint every ``every``-th SBR panel (1 = every panel).  Phase
        boundaries always checkpoint.
    abft : bool
        Record/verify ABFT row+column checksums per array (cheap at
        library scale; disable only for throughput experiments).
    keep_panels : int
        ``sbr_panel`` checkpoints retained (older ones are pruned after
        each save; phase checkpoints are never pruned).
    strict : bool
        Load behavior: raise on a corrupt checkpoint (True, the default —
        corruption should be *seen*) or skip it and fall back to the
        newest older valid checkpoint (False).
    crash : object, optional
        A :class:`repro.resilience.crash.CrashInjector` fired around every
        save (test/CI harness; never serialized into ``run.json``).
    trace : dict, optional
        A serialized :class:`repro.obs.tracing.TraceContext` persisted as
        its *own* run-header key (never part of the pinned ``config``, so
        resuming an old or trace-less directory still validates) — this
        is what lets a served job killed here continue the same trace
        when a later process resumes the directory.
    """

    run_dir: str
    every: int = 1
    abft: bool = True
    keep_panels: int = 2
    strict: bool = True
    crash: object | None = None
    trace: dict | None = None

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ConfigurationError(f"every must be >= 1, got {self.every}")
        if self.keep_panels < 1:
            raise ConfigurationError(
                f"keep_panels must be >= 1, got {self.keep_panels}"
            )


@dataclass
class Checkpoint:
    """One loaded-and-verified checkpoint."""

    step: str
    seq: int
    arrays: dict
    scalars: dict
    path: str

    @property
    def name(self) -> str:
        return f"ckpt-{self.seq:06d}-{self.step}"


@dataclass
class CheckpointReport:
    """What the checkpoint layer did during one run (for the manifest)."""

    run_dir: str = ""
    saves: int = 0
    loads: int = 0
    bytes_written: int = 0
    pruned: int = 0
    resumed_from: str | None = None
    skipped_corrupt: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "run_dir": self.run_dir,
            "saves": self.saves,
            "loads": self.loads,
            "bytes_written": self.bytes_written,
            "pruned": self.pruned,
            "resumed_from": self.resumed_from,
            "skipped_corrupt": list(self.skipped_corrupt),
        }

    def summary(self) -> str:
        """One-line human summary for logs."""
        parts = [f"{self.saves} checkpoint(s) written ({self.bytes_written} B)"]
        if self.resumed_from:
            parts.append(f"resumed from {self.resumed_from}")
        if self.skipped_corrupt:
            parts.append(f"{len(self.skipped_corrupt)} corrupt skipped")
        return "checkpoint: " + ", ".join(parts)


class CheckpointManager:
    """Owns one run directory: writes, verifies, lists, prunes, loads."""

    def __init__(self, config: CheckpointConfig) -> None:
        self.config = config
        self.run_dir = config.run_dir
        self.report = CheckpointReport(run_dir=config.run_dir)
        self._next_seq: int | None = None

    # -- run header ----------------------------------------------------------
    @property
    def run_path(self) -> str:
        return os.path.join(self.run_dir, "run.json")

    @property
    def input_path(self) -> str:
        return os.path.join(self.run_dir, "input.npz")

    def begin(self, a: np.ndarray, config: dict) -> None:
        """Open the run directory: create it, or validate it matches.

        A fresh directory gets the input matrix and the run header.  An
        existing directory (the resume case) is validated: the header
        schema must be supported and the stored configuration and input
        digest must match what the caller is about to run — resuming a
        directory under a *different* problem is refused up front.
        """
        os.makedirs(self.run_dir, exist_ok=True)
        swept = sweep_orphans(self.run_dir)
        if swept:
            self.report.pruned += len(swept)
        a = np.asarray(a)
        if os.path.exists(self.run_path):
            header = self._load_run_header()
            stored = header.get("config", {})
            if stored != config:
                raise ConfigurationError(
                    f"run directory {self.run_dir!r} was created with config "
                    f"{stored}, which differs from the requested {config}; "
                    f"resume with the stored config or use a fresh directory"
                )
            sig = header.get("input_abft")
            if sig is not None:
                verify_abft("input", a, sig, path=self.input_path)
            return
        payload = _arrays_payload({"a": a})
        atomic_write_bytes(self.input_path, payload)
        header = {
            "kind": "ckpt_run",
            "schema": CKPT_SCHEMA_VERSION,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "config": config,
            "input_crc": file_crc32(self.input_path),
            "input_abft": abft_signature(a),
        }
        if self.config.trace is not None:
            # Separate header key, outside the pinned config: the causal
            # identity of the request this run belongs to.
            header["trace"] = dict(self.config.trace)
        atomic_write_json(self.run_path, header, indent=1)

    def trace(self) -> "dict | None":
        """The serialized trace context persisted in the run header.

        None for directories created without one (pre-tracing runs stay
        resumable) or not yet begun.
        """
        if not os.path.exists(self.run_path):
            return self.config.trace
        return self._load_run_header().get("trace")

    def _load_run_header(self) -> dict:
        try:
            with open(self.run_path) as fh:
                header = json.load(fh)
        except FileNotFoundError:
            raise CheckpointCorruptionError(
                f"run directory {self.run_dir!r} has no run.json header",
                path=self.run_path, reason="missing",
            ) from None
        except json.JSONDecodeError as exc:
            raise CheckpointCorruptionError(
                f"run header is not valid JSON: {exc}",
                path=self.run_path, reason="parse",
            ) from None
        schema = header.get("schema")
        if schema != CKPT_SCHEMA_VERSION:
            raise CheckpointSchemaError(
                f"run header schema {schema!r} is not the supported "
                f"version {CKPT_SCHEMA_VERSION}",
                path=self.run_path, field="schema", reason="schema",
            )
        return header

    def run_config(self) -> dict:
        """The driver configuration stored in the run header."""
        return dict(self._load_run_header().get("config", {}))

    def input_matrix(self) -> np.ndarray:
        """Load and integrity-check the stored input matrix."""
        header = self._load_run_header()
        crc = header.get("input_crc")
        if crc is not None and file_crc32(self.input_path) != crc:
            raise CheckpointCorruptionError(
                "stored input matrix failed its payload CRC",
                path=self.input_path, field="crc", reason="crc",
            )
        arrays = _load_npz(self.input_path)
        a = arrays.get("a")
        if a is None:
            raise CheckpointCorruptionError(
                "input payload has no array 'a'",
                path=self.input_path, field="a", reason="missing",
            )
        sig = header.get("input_abft")
        if sig is not None:
            verify_abft("input", a, sig, path=self.input_path)
        self.report.loads += 1
        return a

    # -- save ----------------------------------------------------------------
    def should_save_panel(self, panel_index: int) -> bool:
        """Whether this SBR panel index is a checkpointing one."""
        return panel_index % self.config.every == 0

    def _seq(self) -> int:
        if self._next_seq is None:
            top = 0
            for seq, _step, _p in self._list_raw():
                top = max(top, seq + 1)
            self._next_seq = top
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    def save(self, step: str, arrays: "dict | None" = None,
             scalars: "dict | None" = None) -> str:
        """Commit one checkpoint; returns the commit-record path.

        Crash-injection sites ``ckpt.save.<step>.pre`` and
        ``ckpt.save.<step>.post`` fire around the commit (no-ops without
        an injector).
        """
        arrays = {k: np.asarray(v) for k, v in (arrays or {}).items() if v is not None}
        scalars = dict(scalars or {})
        crash = self.config.crash
        if crash is not None:
            crash.fire(f"ckpt.save.{step}.pre")
        seq = self._seq()
        base = os.path.join(self.run_dir, f"ckpt-{seq:06d}-{step}")
        arrays_path, meta_path = base + ".npz", base + ".json"
        with obs.span("ckpt.save", step=step, seq=seq):
            payload = _arrays_payload(arrays)
            atomic_write_bytes(arrays_path, payload)
            meta = {
                "kind": "ckpt",
                "schema": CKPT_SCHEMA_VERSION,
                "step": step,
                "seq": seq,
                "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "scalars": scalars,
                "crc": file_crc32(arrays_path),
                "arrays": sorted(arrays),
            }
            if self.config.abft:
                meta["abft"] = {k: abft_signature(v) for k, v in arrays.items()}
            atomic_write_json(meta_path, meta, indent=1)
            self.report.saves += 1
            self.report.bytes_written += len(payload)
            obs.ckpt_saved(step, len(payload))
        if step == "sbr_panel":
            self.prune("sbr_panel", keep=self.config.keep_panels)
        if crash is not None:
            crash.fire(
                f"ckpt.save.{step}.post",
                paths={"arrays": arrays_path, "meta": meta_path},
            )
        return meta_path

    # -- load ----------------------------------------------------------------
    def _list_raw(self) -> list[tuple[int, str, str]]:
        """All committed checkpoints as (seq, step, meta_path), ascending."""
        out: list[tuple[int, str, str]] = []
        if not os.path.isdir(self.run_dir):
            return out
        for name in os.listdir(self.run_dir):
            m = _CKPT_RE.match(name)
            if m:
                out.append((int(m.group(1)), m.group(2), os.path.join(self.run_dir, name)))
        out.sort()
        return out

    def list(self) -> list[tuple[int, str, str]]:
        """Committed checkpoints as (seq, step, meta_path), ascending."""
        return self._list_raw()

    def load_path(self, meta_path: str) -> Checkpoint:
        """Load one checkpoint by commit-record path, verifying integrity.

        Raises
        ------
        CheckpointCorruptionError / CheckpointSchemaError
            Torn or checksum-violating payloads, unparsable or missing
            commit records, unsupported schema versions.
        """
        with obs.span("ckpt.load", path=os.path.basename(meta_path)):
            try:
                with open(meta_path) as fh:
                    meta = json.load(fh)
            except FileNotFoundError:
                raise CheckpointCorruptionError(
                    "checkpoint commit record is missing",
                    path=meta_path, reason="missing",
                ) from None
            except json.JSONDecodeError as exc:
                raise CheckpointCorruptionError(
                    f"checkpoint commit record is not valid JSON (torn write?): {exc}",
                    path=meta_path, reason="parse",
                ) from None
            schema = meta.get("schema")
            if schema != CKPT_SCHEMA_VERSION:
                raise CheckpointSchemaError(
                    f"checkpoint schema {schema!r} is not the supported "
                    f"version {CKPT_SCHEMA_VERSION}; re-run instead of resuming",
                    path=meta_path, field="schema", reason="schema",
                )
            arrays_path = meta_path[: -len(".json")] + ".npz"
            crc = meta.get("crc")
            if crc is None:
                raise CheckpointCorruptionError(
                    "checkpoint commit record carries no payload CRC",
                    path=meta_path, field="crc", reason="parse",
                )
            try:
                actual = file_crc32(arrays_path)
            except FileNotFoundError:
                raise CheckpointCorruptionError(
                    "checkpoint payload file is missing",
                    path=arrays_path, reason="missing",
                ) from None
            if actual != crc:
                raise CheckpointCorruptionError(
                    f"checkpoint payload failed its CRC32 "
                    f"(stored {crc}, actual {actual}; torn write or bit rot)",
                    path=arrays_path, field="crc", reason="torn",
                )
            arrays = _load_npz(arrays_path)
            expected = meta.get("arrays")
            if expected is not None and sorted(arrays) != list(expected):
                raise CheckpointCorruptionError(
                    f"payload arrays {sorted(arrays)} disagree with the "
                    f"commit record's {list(expected)}",
                    path=arrays_path, field="arrays", reason="abft",
                )
            for name, sig in (meta.get("abft") or {}).items():
                if name not in arrays:
                    raise CheckpointCorruptionError(
                        f"commit record signs array {name!r} absent from the payload",
                        path=arrays_path, field=f"abft:{name}", reason="missing",
                    )
                verify_abft(name, arrays[name], sig, path=arrays_path)
            self.report.loads += 1
            return Checkpoint(
                step=meta.get("step", ""),
                seq=int(meta.get("seq", -1)),
                arrays=arrays,
                scalars=dict(meta.get("scalars", {})),
                path=meta_path,
            )

    def latest(self, steps: "tuple[str, ...] | None" = None) -> "Checkpoint | None":
        """Newest verified checkpoint (optionally restricted to steps).

        ``strict`` (from the config) decides what a corrupt candidate
        does: raise (default), or get recorded in the report's
        ``skipped_corrupt`` and skipped in favor of the next-older one.
        """
        candidates = [
            (seq, step, p) for seq, step, p in self._list_raw()
            if steps is None or step in steps
        ]
        for _seq, _step, meta_path in reversed(candidates):
            try:
                return self.load_path(meta_path)
            except CheckpointCorruptionError as exc:
                if self.config.strict:
                    raise
                self.report.skipped_corrupt.append(
                    {"path": meta_path, "error": str(exc)}
                )
        return None

    def phase(self, step: str) -> "Checkpoint | None":
        """Newest verified checkpoint of one named step."""
        return self.latest(steps=(step,))

    # -- maintenance ---------------------------------------------------------
    def prune(self, step: str, *, keep: int = 0) -> int:
        """Drop all but the newest ``keep`` checkpoints of one step."""
        items = [(seq, p) for seq, s, p in self._list_raw() if s == step]
        victims = items if keep == 0 else items[:-keep]
        removed = 0
        for _seq, meta_path in victims:
            for path in (meta_path, meta_path[: -len(".json")] + ".npz"):
                try:
                    os.unlink(path)
                except OSError:
                    continue
            removed += 1
        self.report.pruned += removed
        return removed

    def mark_resumed(self, ck: Checkpoint) -> None:
        """Record the restart point in the report (and as an obs span)."""
        self.report.resumed_from = ck.name
        with obs.span("ckpt.resume", checkpoint=ck.name, step=ck.step):
            pass


# -- payload helpers ----------------------------------------------------------

def _arrays_payload(arrays: dict) -> bytes:
    """Serialize an array dict to npz bytes (uncompressed, exact bits)."""
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _load_npz(path: str) -> dict:
    try:
        with np.load(path, allow_pickle=False) as npz:
            return {k: npz[k] for k in npz.files}
    except (OSError, ValueError, EOFError) as exc:
        raise CheckpointCorruptionError(
            f"checkpoint payload is unreadable (torn write?): {exc}",
            path=path, reason="torn",
        ) from None


# -- resilience-state capture --------------------------------------------------

def resilience_snapshot(ctx, engine) -> "dict | None":
    """Serializable snapshot of the resilience-ladder position.

    Captures the per-run report (detections/escalations/retries so far)
    and, when the engine is a
    :class:`~repro.resilience.context.ResilientEngine`, the precision it
    is currently escalated to — so a resumed run continues at the same
    rung instead of re-failing its way up the ladder.
    """
    if ctx is None:
        return None
    snap: dict = {"report": ctx.report.to_dict()}
    base = getattr(engine, "base", None)
    if base is not None:
        snap["base_precision"] = base.precision.value
        snap["current_precision"] = engine.precision.value
    return snap


def restore_resilience(ctx, engine, snap: "dict | None") -> None:
    """Re-arm a fresh context/engine from a checkpointed snapshot."""
    if ctx is None or not snap:
        return
    from ..precision.modes import Precision
    from ..resilience.policy import ResilienceReport

    report = snap.get("report")
    if report:
        ctx.report = ResilienceReport.from_dict(report)
    current = snap.get("current_precision")
    base = getattr(engine, "base", None)
    if base is not None and current and current != base.precision.value:
        engine.escalate_to(Precision(current))
