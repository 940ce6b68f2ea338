"""repro.ckpt — durable checkpoint/restart for long EVD runs.

A long two-stage eigendecomposition — at the paper's scale, hours of
Tensor-Core band reduction — must survive preemption, OOM-kills, and
power loss without restarting from scratch.  This package makes the
drivers *resumable*:

- :mod:`repro.ckpt.store` — the versioned, CRC- and ABFT-checksummed,
  atomically committed checkpoint files under one run directory
  (:class:`CheckpointConfig` / :class:`CheckpointManager`).
- Huang–Abraham row/column checksum signatures
  (:mod:`repro.resilience.abft`, shared with the online launch guard)
  protect checkpointed matrices against silent corruption at rest.
- :mod:`repro.ckpt.driver` — :func:`resume`: reconstruct a run from its
  directory alone and continue it to the same result the uninterrupted
  run would have produced (bitwise-identical per precision mode — every
  stage is deterministic, so a restored bit-exact state replays
  bit-exactly).

Library use::

    from repro import syevd_2stage
    from repro.ckpt import CheckpointConfig, resume

    res = syevd_2stage(a, b=8, checkpoint=CheckpointConfig("runs/job-17"))
    # ... process dies mid-run; later, any process:
    res = resume("runs/job-17")

CLI::

    python -m repro.ckpt run --n 96 --run-dir runs/job-17
    python -m repro.ckpt resume runs/job-17
    python -m repro.ckpt list runs/job-17
    python -m repro.ckpt verify runs/job-17

Crash-fault injection (:class:`repro.resilience.crash.CrashInjector`)
drives the recovery tests: kills at named save sites, torn writes, and
stale-schema corruption, each of which must surface as a structured
:class:`~repro.errors.CheckpointCorruptionError` — never as silently
wrong numbers.
"""

from ..resilience.abft import abft_signature, verify_abft
from .store import (
    CKPT_SCHEMA_VERSION,
    PHASE_STEPS,
    Checkpoint,
    CheckpointConfig,
    CheckpointManager,
    CheckpointReport,
    resilience_snapshot,
    restore_resilience,
)
from .driver import resume, result_digest

__all__ = [
    "CKPT_SCHEMA_VERSION",
    "PHASE_STEPS",
    "Checkpoint",
    "CheckpointConfig",
    "CheckpointManager",
    "CheckpointReport",
    "abft_signature",
    "verify_abft",
    "resilience_snapshot",
    "restore_resilience",
    "resume",
    "result_digest",
]
