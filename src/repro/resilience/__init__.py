"""repro.resilience — numerical-resilience: detectors, escalation, faults.

The solvers run FP16 Tensor-Core GEMMs at the edge of numerical safety
(machine eps ~1e-4, rescued only by error correction), so overflow, NaN
propagation, lost orthogonality, and norm explosion are first-class
failure modes.  This package makes the library detect them mid-run and
degrade gracefully instead of returning silently-wrong eigenpairs:

- :mod:`repro.resilience.detectors` — cheap invariant monitors (NaN/Inf
  scans, panel-Q orthogonality drift, norm growth, symmetry drift,
  residual probes) raising :class:`repro.errors.NumericalBreakdownError`
  with phase/panel context.
- :mod:`repro.resilience.abft` — online ABFT: Huang–Abraham row/column
  checksum verification of every guarded GEMM launch, single-element
  localization and bitwise-exact correction, a Freivalds probe for
  batched launches, and :class:`repro.errors.SdcError` escalation into
  the retry ladder (knob ``abft="off"|"detect"|"correct"``).  Also the
  shared implementation behind the at-rest checkpoint signatures.
- :mod:`repro.resilience.policy` — the precision-escalation ladder
  (``FP16_TC -> FP16_EC_TC -> TF32_TC -> FP32 -> FP64``) with a retry
  budget and exponential widening, plus the per-run
  :class:`ResilienceReport`.
- :mod:`repro.resilience.context` — the per-run orchestrator: wraps GEMM
  engines, runs every retryable unit (SBR panel, form-Q, bulge chase,
  back-transform) through one snapshot/retry loop, ``run_unit``, and
  emits every detection/escalation as obs spans.
- :mod:`repro.resilience.faults` — the deterministic fault-injection
  harness tests use to prove every detector fires and every fallback
  path recovers.
- :mod:`repro.resilience.crash` — crash-fault injection for the durable
  checkpoint/restart subsystem (:mod:`repro.ckpt`): kill-at-site,
  torn-write, and stale-schema faults that drive the recovery tests.

Driver-level use::

    from repro import syevd_2stage
    res = syevd_2stage(a, b=16, precision="fp16_tc", on_breakdown="escalate")
    res.resilience_report.empty      # True on a healthy run
    res.resilience_report.summary()  # what was detected/escalated

See ``docs/resilience.md`` for the detector catalogue, ladder semantics,
and the fault-injection cookbook.
"""

from .context import BREAKDOWN_MODES, ResilienceContext, ResilientEngine
from .crash import CRASH_KINDS, CrashFaultSpec, CrashInjector, parse_kill_site
from .abft import (
    ABFT_MODES,
    AbftChecker,
    AbftEvent,
    AbftPolicy,
    AbftReport,
    Syr2kPre,
    abft_signature,
    checksum_crc,
    sum_vectors,
    verify_abft,
)
from .detectors import (
    DetectorBank,
    DetectorConfig,
    has_nonfinite,
    max_abs,
    panel_orthogonality_defect,
    residual_probe,
    symmetry_defect,
)
from .faults import FAULT_KINDS, FaultInjector, FaultRecord, FaultSpec
from .policy import (
    DetectionRecord,
    EscalationLadder,
    EscalationRecord,
    ResilienceReport,
    backoff,
)

__all__ = [
    "BREAKDOWN_MODES",
    "ResilienceContext",
    "ResilientEngine",
    "ABFT_MODES",
    "AbftChecker",
    "AbftEvent",
    "AbftPolicy",
    "AbftReport",
    "Syr2kPre",
    "abft_signature",
    "checksum_crc",
    "sum_vectors",
    "verify_abft",
    "CRASH_KINDS",
    "CrashFaultSpec",
    "CrashInjector",
    "parse_kill_site",
    "DetectorBank",
    "DetectorConfig",
    "has_nonfinite",
    "max_abs",
    "panel_orthogonality_defect",
    "residual_probe",
    "symmetry_defect",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultRecord",
    "FaultSpec",
    "DetectionRecord",
    "EscalationLadder",
    "EscalationRecord",
    "ResilienceReport",
    "backoff",
]
