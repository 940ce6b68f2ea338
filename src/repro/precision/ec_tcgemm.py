"""Error-corrected Tensor-Core GEMM (Ootomo & Yokota 2022; paper §5.3).

Given FP32 operands, write ``A = Ã + ΔA`` and ``B = B̃ + ΔB`` where the
tilde terms are the FP16 roundings.  Then

    A @ B = Ã B̃  +  Ã ΔB  +  ΔA B̃  +  ΔA ΔB

The last term is O(u_fp16^2) ≈ 2^-22 relative and is dropped (the paper
does the same).  The three retained products each run on (emulated) Tensor
Cores.  Two refinements from the original method are modelled:

1. **Residual scaling.** ΔA has magnitude ~2^-11·|A|; rounding it directly
   to FP16 would push many entries into the subnormal range and lose their
   low bits.  The residual is therefore scaled by 2^11 before FP16
   rounding and the correction GEMMs are descaled on accumulation.
2. **FP32 combination outside the Tensor Core.** The correction terms are
   added to the main product in FP32, avoiding the Tensor-Core internal
   accumulator rounding that limits the naive Markidis scheme.

The result matches a plain FP32 SGEMM to within a few FP32 ulps — property
tests assert a relative error floor near ``2^-24`` rather than ``2^-11``.

On the host the hi/lo split runs in float32 arithmetic at a few ns per
element (:func:`~repro.precision.rounding.split_fp16_into`), still a
sizeable share of the three FP32 products for the thin operands SBR
multiplies, so an operand multiplied more than once is split once:
:func:`repro.precision.prepared.prepare` (``fmt="ec"``) returns a
:class:`~repro.precision.prepared.PreparedOperand` handle, views of
which multiply without re-splitting or copying.  A handle lives in the
arena of the driver call that made it (:func:`repro.perf.call_arena`),
so its ``hi``/``lo`` are freed when that call returns.  Every split counts its
elements into the ``ec_split_elems`` span counter.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..obs import spans as _obs
from .prepared import PreparedOperand
from .rounding import OOTOMO_SCALE, split_fp16, split_fp16_into
from .tcgemm import _tcgemm

__all__ = ["ec_tcgemm"]


def _split(x, ws, name: str):
    """Hi/lo FP16 split of one operand, through workspace buffers if given."""
    _obs.counter("ec_split_elems", x.size)
    if ws is None:
        return split_fp16(x)
    hi = ws.take(f"ec_{name}_hi", x.shape, np.float32)
    lo = ws.take(f"ec_{name}_lo", x.shape, np.float32)
    return split_fp16_into(x, hi, lo)


def _hi_lo(x, ws, name: str):
    """The split of one ``ec_tcgemm`` operand: a handle's, or a fresh one.

    A handle's split goes to BLAS in the memory order a fresh split of
    the same view would have, so BLAS runs the same kernel and sums in
    the same order: the product is bitwise what the array would give.
    A fresh split keeps the view's order without an arena (``empty_like``)
    and is row-major in one (the arena's buffers).  The handles SBR
    multiplies are row-major in every view they are used in (a growing
    buffer's ``.T`` is its transposed twin); a transposed view of any
    other handle is copied to row-major through the arena (two copies,
    far cheaper than a split).
    """
    if not isinstance(x, PreparedOperand) or x.fmt != "ec":
        return _split(getattr(x, "array", x), ws, name)
    if ws is None or x.hi.strides[-1] == x.hi.itemsize:
        return x.hi, x.lo
    hi = ws.take(f"ec_{name}_copy_hi", x.shape, np.float32)
    lo = ws.take(f"ec_{name}_copy_lo", x.shape, np.float32)
    np.copyto(hi, x.hi)
    np.copyto(lo, x.lo)
    return hi, lo


def ec_tcgemm(
    a, b, *, chunk_k: int | None = None, out: "np.ndarray | None" = None, ws=None
) -> np.ndarray:
    """FP32-accurate matrix product computed with emulated FP16 Tensor-Core GEMMs.

    Parameters
    ----------
    a, b : array_like
        FP32 (or convertible) matrices with compatible inner dimensions;
        both 2-D, or both 3-D stacks with an equal batch dimension.
    chunk_k : int, optional
        Chunked-accumulation granularity forwarded to the underlying
        emulated TC GEMMs (see :func:`repro.precision.tcgemm`).
    out : numpy.ndarray, optional
        FP32 result buffer to write into (must not alias the operands;
        the engine layer guards aliasing for callers).
    ws : repro.perf.Workspace, optional
        Scratch arena: the hi/lo operand splits and the two correction
        products reuse arena buffers instead of allocating six full-size
        temporaries per call — the dominant allocation cost of the SBR
        hot loop under the EC policy.

    Returns
    -------
    numpy.ndarray
        FP32 product with single-precision accuracy.
    """
    if not isinstance(a, PreparedOperand):
        a = np.asarray(a, dtype=np.float32)
    if not isinstance(b, PreparedOperand):
        b = np.asarray(b, dtype=np.float32)
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ShapeError(
            f"ec_tcgemm requires both operands 2-D (or both 3-D batched), "
            f"got {a.ndim}-D and {b.ndim}-D"
        )
    if a.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"batch dimensions differ: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    return _ec_tcgemm(a, b, chunk_k, out, ws)


def _ec_tcgemm(a, b, chunk_k, out, ws) -> np.ndarray:
    """:func:`ec_tcgemm` on operands already validated (arrays or handles).

    The EC engine calls this from its launch path, which has checked the
    operands' dimensions and shapes once already.
    """
    a_hi, a_lo = _hi_lo(a, ws, "a")
    b_hi, b_lo = _hi_lo(b, ws, "b")

    out_shape = a.shape[:-1] + (b.shape[-1],)
    main = _tcgemm(a_hi, b_hi, "fp32", chunk_k, out, ws)
    if ws is None:
        corr_a = _tcgemm(a_lo, b_hi, "fp32", chunk_k, None, None)
        corr_b = _tcgemm(a_hi, b_lo, "fp32", chunk_k, None, None)
    else:
        corr_a = _tcgemm(a_lo, b_hi, "fp32", chunk_k,
                         ws.take("ec_corr_a", out_shape, np.float32), ws)
        corr_b = _tcgemm(a_hi, b_lo, "fp32", chunk_k,
                         ws.take("ec_corr_b", out_shape, np.float32), ws)

    inv_scale = np.float32(1.0 / OOTOMO_SCALE)
    # FP32 combination outside the (emulated) Tensor Core.  The in-place
    # form is bitwise identical to ``main + (corr_a + corr_b) * inv_scale``
    # (same operations in the same association, no extra roundings).
    if out is None:
        return main + (corr_a + corr_b) * inv_scale
    np.add(corr_a, corr_b, out=corr_a)
    corr_a *= inv_scale
    main += corr_a
    return main
