"""repro — Fast Symmetric Eigenvalue Decomposition via WY Representation
on Tensor Core (PPoPP 2023): a complete from-scratch reproduction.

The library implements the paper's WY-based successive band reduction
(Algorithm 1), its TSQR panel with Householder-vector reconstruction
(Algorithm 3), recursive W formation (Algorithm 2), the conventional
ZY-based baseline, a full second stage (bulge chasing + divide & conquer
+ QL + bisection), Tensor-Core precision emulation (FP16/BF16/TF32 and
the error-corrected EC-TCGEMM), and an A100 performance model calibrated
to the paper's own Table 1.

Quickstart
----------
>>> import numpy as np
>>> from repro import generate_symmetric, syevd_2stage
>>> a, lam_true = generate_symmetric(256, distribution="geo", cond=1e3,
...                                  rng=np.random.default_rng(0))
>>> res = syevd_2stage(a, b=8, nb=32, precision="fp16_tc")
>>> float(np.abs(np.sort(res.eigenvalues) - lam_true).max()) < 1e-2
True

Package map
-----------
- :mod:`repro.precision` — Tensor-Core arithmetic emulation
- :mod:`repro.gemm` — GEMM engines, traces, symbolic executors
- :mod:`repro.la` — Householder/WY/QR/TSQR/LU/band kernels
- :mod:`repro.sbr` — band reduction (the paper's contribution)
- :mod:`repro.eig` — bulge chasing, D&C, QL, bisection, drivers
- :mod:`repro.matrices` — test-matrix generation (Tables 3/4 classes)
- :mod:`repro.metrics` — accuracy metrics and flop counts
- :mod:`repro.device` — calibrated A100 performance model
- :mod:`repro.obs` — telemetry: phase spans, run manifests, reports
- :mod:`repro.resilience` — failure detectors, precision-escalation
  retry, fault injection (numeric and crash)
- :mod:`repro.ckpt` — durable checkpoint/restart with ABFT checksums
- :mod:`repro.experiments` — per-table/figure reproduction drivers
"""

from .errors import (
    BudgetExceededError,
    CheckpointCorruptionError,
    CheckpointSchemaError,
    ConfigurationError,
    ConvergenceError,
    NotSymmetricError,
    NumericalBreakdownError,
    ReproError,
    SdcError,
    ShapeError,
    SimulatedCrashError,
    SingularMatrixError,
)
from .precision import Precision, ec_tcgemm, tcgemm
from .gemm import (
    EcTensorCoreEngine,
    Fp64Engine,
    GemmEngine,
    GemmRecord,
    GemmTrace,
    SgemmEngine,
    TensorCoreEngine,
    make_engine,
)
from .la import tsqr, reconstruct_wy
from .sbr import SbrResult, form_q_from_blocks, form_wy_tree, sbr_wy, sbr_zy
from .eig import (
    EvdResult,
    bulge_chase,
    eigvals_bisect,
    syevd_1stage,
    syevd_2stage,
    syevd_selected,
    tridiag_eig_dc,
    tridiag_eig_ql,
    tridiag_inverse_iteration,
)
from .matrices import MatrixSpec, TABLE_MATRIX_SPECS, generate_symmetric
from .metrics import backward_error, eigenvalue_error, orthogonality_error
from .device import A100Spec, DeviceSpec, PerfModel
from .resilience import (
    AbftPolicy,
    AbftReport,
    CrashFaultSpec,
    CrashInjector,
    DetectorConfig,
    EscalationLadder,
    FaultInjector,
    FaultSpec,
    ResilienceContext,
    ResilienceReport,
)
from .ckpt import (
    CheckpointConfig,
    CheckpointManager,
    CheckpointReport,
    resume,
    result_digest,
)
from . import obs
from . import resilience
from . import ckpt

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ShapeError",
    "NotSymmetricError",
    "SingularMatrixError",
    "ConvergenceError",
    "ConfigurationError",
    "NumericalBreakdownError",
    "SdcError",
    "BudgetExceededError",
    "CheckpointCorruptionError",
    "CheckpointSchemaError",
    "SimulatedCrashError",
    "Precision",
    "tcgemm",
    "ec_tcgemm",
    "GemmEngine",
    "GemmRecord",
    "GemmTrace",
    "SgemmEngine",
    "TensorCoreEngine",
    "EcTensorCoreEngine",
    "Fp64Engine",
    "make_engine",
    "tsqr",
    "reconstruct_wy",
    "SbrResult",
    "sbr_wy",
    "sbr_zy",
    "form_wy_tree",
    "form_q_from_blocks",
    "EvdResult",
    "bulge_chase",
    "syevd_2stage",
    "syevd_1stage",
    "syevd_selected",
    "tridiag_eig_dc",
    "tridiag_eig_ql",
    "eigvals_bisect",
    "tridiag_inverse_iteration",
    "MatrixSpec",
    "TABLE_MATRIX_SPECS",
    "generate_symmetric",
    "backward_error",
    "orthogonality_error",
    "eigenvalue_error",
    "DeviceSpec",
    "A100Spec",
    "PerfModel",
    "DetectorConfig",
    "EscalationLadder",
    "FaultInjector",
    "FaultSpec",
    "ResilienceContext",
    "ResilienceReport",
    "AbftPolicy",
    "AbftReport",
    "CrashFaultSpec",
    "CrashInjector",
    "CheckpointConfig",
    "CheckpointManager",
    "CheckpointReport",
    "resume",
    "result_digest",
    "obs",
    "resilience",
    "ckpt",
    "__version__",
]
