"""Accuracy metrics and analytic operation-count models.

- :mod:`~repro.metrics.accuracy` — the paper's three error measures:
  backward error ``E_b``, orthogonality ``E_o`` (Table 3) and eigenvalue
  error ``E_s`` (Table 4).
- :mod:`~repro.metrics.flops` — closed-form operation counts of the
  ZY-based and WY-based SBR algorithms (Table 2), cross-checked against
  traced GEMM streams in the tests.
"""

from .accuracy import backward_error, orthogonality_error, eigenvalue_error
from .bounds import sbr_backward_error_bound, sbr_orthogonality_bound
from .flops import (
    bulge_wavefront_flops,
    sbr_zy_flops,
    sbr_wy_flops,
    formw_flops,
    gemm_flops,
)

__all__ = [
    "backward_error",
    "orthogonality_error",
    "eigenvalue_error",
    "sbr_backward_error_bound",
    "sbr_orthogonality_bound",
    "sbr_zy_flops",
    "sbr_wy_flops",
    "formw_flops",
    "gemm_flops",
    "bulge_wavefront_flops",
]
