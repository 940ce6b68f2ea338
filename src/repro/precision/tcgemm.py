"""Emulated Tensor-Core GEMM: low-precision multiply, FP32 accumulate.

A Tensor-Core MMA instruction computes an exact product of low-precision
operands and adds it into an FP32 accumulator, rounding once per addition.
On the CPU we emulate this as

    C = fp32(round(A)) @ fp32(round(B))

i.e. operands are rounded to the target format and the product runs in
FP32.  NumPy's FP32 matmul accumulates in FP32 (BLAS sgemm), which matches
the per-addition rounding of the hardware accumulator closely enough for
the error levels studied in the paper (the dominant error source is operand
rounding, ~2^-11, four orders of magnitude above FP32 accumulation error).

``chunk_k`` optionally splits the inner dimension into chunks accumulated
sequentially in FP32, modelling the "one rounding per MMA tile" behaviour
even when the underlying BLAS uses higher-precision blocked summation.

Operands may be 3-D stacks ``(batch, m, k) @ (batch, k, n)`` — the
strided-batched form issued by :meth:`~repro.gemm.engine.GemmEngine.
gemm_batched` — every path (rounding, chunking, ``out=``) is
dimension-agnostic over the leading batch axis.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .prepared import ROW_MAJOR, PreparedOperand
from .rounding import round_to_format

__all__ = ["tcgemm"]


def _rounded(x, fmt: str) -> np.ndarray:
    """``x`` rounded to ``fmt``: a matching handle's ``hi``, else rounded now.

    A handle's ``hi`` reaches BLAS in the memory order the rounding would
    have given the view (:mod:`repro.precision.prepared`): a transposed
    view of a BF16/TF32 handle without a twin is copied to row-major.
    """
    if not isinstance(x, PreparedOperand):
        return round_to_format(x, fmt)
    if x.fmt != fmt:
        return round_to_format(x.array, fmt)
    if fmt in ROW_MAJOR and x.hi.strides[-1] != x.hi.itemsize:
        return np.ascontiguousarray(x.hi)
    return x.hi


def tcgemm(
    a,
    b,
    *,
    operand_format: str = "fp16",
    chunk_k: int | None = None,
    out: "np.ndarray | None" = None,
    ws=None,
) -> np.ndarray:
    """Emulated Tensor-Core matrix product ``A @ B``.

    Parameters
    ----------
    a, b : array_like or PreparedOperand
        FP32 (or convertible) matrices with ``a.shape[-1] == b.shape[-2]``;
        both 2-D, or both 3-D with an equal leading batch dimension.  A
        handle prepared in ``operand_format`` is multiplied as its
        rounded ``hi`` (bitwise the same product); any other handle is
        rounded from its source array.
    operand_format : str
        Low-precision operand format: ``"fp16"`` (default), ``"bf16"``,
        ``"tf32"`` or ``"fp32"`` (no operand rounding, useful for testing).
    chunk_k : int, optional
        If given, the inner dimension is processed in chunks of this size
        with an explicit FP32 accumulator between chunks, modelling MMA-tile
        granularity accumulation.  ``None`` (default) uses a single FP32
        matmul.
    out : numpy.ndarray, optional
        FP32 buffer of the result shape to write into (must not alias the
        operands — the engine layer guards aliasing for callers).
    ws : repro.perf.Workspace, optional
        Scratch arena for the chunked path's per-chunk product buffer
        (reused across calls instead of one temporary per chunk).

    Returns
    -------
    numpy.ndarray
        FP32 result of shape ``a.shape[:-1] + (b.shape[-1],)``.
    """
    if not isinstance(a, PreparedOperand):
        a = np.asarray(a)
    if not isinstance(b, PreparedOperand):
        b = np.asarray(b)
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ShapeError(
            f"tcgemm requires both operands 2-D (or both 3-D batched), "
            f"got {a.ndim}-D and {b.ndim}-D"
        )
    if a.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"batch dimensions differ: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")

    ar = _rounded(a, operand_format)
    br = _rounded(b, operand_format)
    k = a.shape[-1]
    out_shape = a.shape[:-1] + (b.shape[-1],)

    if chunk_k is None or chunk_k >= k:
        if out is not None:
            return np.matmul(ar, br, out=out)
        return np.asarray(ar @ br, dtype=np.float32)

    if chunk_k <= 0:
        raise ValueError(f"chunk_k must be positive, got {chunk_k}")

    # In-place FP32 accumulation: one rounding per chunk, as on hardware.
    # The first chunk writes the accumulator directly; later chunks go
    # through one reused scratch buffer instead of a temporary per chunk.
    acc = out if out is not None else np.empty(out_shape, dtype=np.float32)
    np.matmul(ar[..., :, :chunk_k], br[..., :chunk_k, :], out=acc)
    if k > chunk_k:
        if ws is not None:
            scratch = ws.take("tcgemm_chunk", out_shape, np.float32)
        else:
            scratch = np.empty(out_shape, dtype=np.float32)
        for start in range(chunk_k, k, chunk_k):
            stop = min(start + chunk_k, k)
            np.matmul(ar[..., :, start:stop], br[..., start:stop, :], out=scratch)
            acc += scratch
    return acc
