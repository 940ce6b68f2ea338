"""Compute-precision modes used throughout the library.

A :class:`Precision` value names an end-to-end arithmetic policy for the
matrix-multiply-heavy parts of the algorithms:

- ``FP64`` / ``FP32``: plain IEEE arithmetic (SIMT-core "SGEMM"/"DGEMM").
- ``FP16_TC`` / ``BF16_TC`` / ``TF32_TC``: emulated Tensor-Core GEMM —
  operands rounded to the low-precision format, products accumulated in
  FP32.
- ``FP16_EC_TC``: the paper's EC-TCGEMM — FP16 Tensor-Core GEMMs with the
  Ootomo–Yokota error correction, recovering FP32-level accuracy.

Each mode's operand format, rounding function, machine epsilon,
next-safer rung and Tensor-Core use are one row of a table built once at
import; the enum's properties read it, so accuracy checks (Tables 3/4)
can be written against ``mode.machine_eps`` and every precision name in
the library (CLI choices, serve admission, the degradation ladder) comes
from this enum.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .rounding import (
    BF16_EPS,
    FP16_EPS,
    FP32_EPS,
    TF32_EPS,
    round_bf16,
    round_fp16,
    round_tf32,
)

__all__ = ["Precision"]


def _identity32(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


def _identity64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Precision(enum.Enum):
    """Arithmetic policy for GEMM-heavy kernels."""

    FP64 = "fp64"
    FP32 = "fp32"
    FP16_TC = "fp16_tc"
    BF16_TC = "bf16_tc"
    TF32_TC = "tf32_tc"
    FP16_EC_TC = "fp16_ec_tc"

    @property
    def uses_tensor_core(self) -> bool:
        """Whether this mode routes GEMMs through (emulated) Tensor Cores."""
        return _TABLE[self].tensor_core

    @property
    def is_error_corrected(self) -> bool:
        """Whether the mode applies the Ootomo–Yokota error correction."""
        return self is Precision.FP16_EC_TC

    @property
    def operand_format(self) -> str:
        """Storage format of GEMM operands (``fp16``/``bf16``/``tf32``/``fp32``/``fp64``)."""
        return _TABLE[self].operand_format

    @property
    def round_operand(self) -> Callable[[np.ndarray], np.ndarray]:
        """Function rounding an array to this mode's operand format.

        For the error-corrected mode the *effective* operand precision is
        FP32 (the correction restores it), so no rounding is exposed here;
        the split happens inside :func:`repro.precision.ec_tcgemm`.
        """
        return _TABLE[self].round_operand

    @property
    def machine_eps(self) -> float:
        """Unit roundoff governing the mode's error floor.

        For plain TC modes this is the operand-format roundoff (the paper's
        "machine epsilon of Tensor Core", ~1e-4 for FP16); for EC-TC and
        FP32 it is the FP32 roundoff.
        """
        return _TABLE[self].machine_eps

    @property
    def next_safer(self) -> "Precision | None":
        """The next-safer mode on the escalation ladder (None at the top).

        The ladder orders modes by decreasing numerical risk::

            FP16_TC -> FP16_EC_TC -> TF32_TC -> FP32 -> FP64

        BF16 shares FP32's exponent range but has the coarsest mantissa,
        so its escape hatch is TF32 (same range, FP16-level mantissa).
        The resilience layer (:mod:`repro.resilience`) climbs this ladder
        when a failure detector fires.
        """
        return _TABLE[self].next_safer

    def ladder(self) -> "list[Precision]":
        """All successively safer modes starting from (and including) this one."""
        out = [self]
        while out[-1].next_safer is not None:
            out.append(out[-1].next_safer)
        return out

    @property
    def working_dtype(self) -> np.dtype:
        """NumPy dtype in which matrices are stored between kernels."""
        return np.dtype(np.float64 if self is Precision.FP64 else np.float32)

    @classmethod
    def from_name(cls, name: "str | Precision") -> "Precision":
        """Resolve a mode from its enum value string (case-insensitive)."""
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ConfigurationError(
                f"unknown precision {name!r}; expected one of: {valid}"
            ) from None


@dataclass(frozen=True)
class _Row:
    operand_format: str
    round_operand: Callable[[np.ndarray], np.ndarray]
    machine_eps: float
    next_safer: "Precision | None"
    tensor_core: bool


#: One row per mode, read by the properties above.
_TABLE: "dict[Precision, _Row]" = {
    Precision.FP64: _Row("fp64", _identity64, float(2.0**-53), None, False),
    Precision.FP32: _Row("fp32", _identity32, FP32_EPS, Precision.FP64, False),
    Precision.FP16_TC: _Row("fp16", round_fp16, FP16_EPS, Precision.FP16_EC_TC, True),
    Precision.BF16_TC: _Row("bf16", round_bf16, BF16_EPS, Precision.TF32_TC, True),
    Precision.TF32_TC: _Row("tf32", round_tf32, TF32_EPS, Precision.FP32, True),
    Precision.FP16_EC_TC: _Row("fp16", _identity32, FP32_EPS, Precision.TF32_TC, True),
}
