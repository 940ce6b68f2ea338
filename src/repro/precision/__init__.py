"""Floating-point precision emulation for Tensor-Core arithmetic.

NVIDIA Tensor Cores multiply low-precision operands (FP16 / BF16 / TF32) and
accumulate in FP32.  This package emulates that arithmetic on the CPU with
NumPy so the *numerical* behaviour of the paper's algorithms — the ~1e-4
error floor of FP16 tensor-core computation, and the FP32-level accuracy of
the error-corrected EC-TCGEMM — is reproduced exactly where it matters: at
the operand-rounding step.

Public API
----------
- :func:`round_fp16`, :func:`round_bf16`, :func:`round_tf32` — round an FP32
  array to a storage format, returning FP32 values exactly representable in
  that format.
- :func:`split_fp16` — Ootomo–Yokota high/low split with exponent scaling.
- :func:`tcgemm` — emulated tensor-core GEMM (low-precision multiply, FP32
  accumulate, optionally with chunked accumulation to model MMA-tile
  rounding).
- :func:`ec_tcgemm` — error-corrected tensor-core GEMM recovering FP32
  accuracy (Ootomo & Yokota 2022, used by the paper as "EC-TCGEMM").
- :class:`Precision` — enumeration of supported compute modes, with the
  machine epsilon and operand-rounding function of each.

Both GEMMs also take :class:`~repro.precision.prepared.PreparedOperand`
handles (:mod:`repro.precision.prepared`), operands rounded or split once
for repeated use; the engines' ``prepare_operand`` makes them.
"""

from .rounding import (
    FP16_EPS,
    FP32_EPS,
    TF32_EPS,
    BF16_EPS,
    round_bf16,
    round_fp16,
    round_tf32,
    round_to_format,
    split_fp16,
)
from .modes import Precision
from .tcgemm import tcgemm
from .ec_tcgemm import ec_tcgemm

__all__ = [
    "FP16_EPS",
    "FP32_EPS",
    "TF32_EPS",
    "BF16_EPS",
    "round_fp16",
    "round_bf16",
    "round_tf32",
    "round_to_format",
    "split_fp16",
    "Precision",
    "tcgemm",
    "ec_tcgemm",
]
