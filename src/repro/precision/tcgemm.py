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
from .rounding import _CAST_GATE, round_fp16, round_fp16_into, round_to_format

__all__ = ["tcgemm"]


def _buffer_like(ws, tag: str, x) -> "np.ndarray | None":
    """An arena float32 buffer of ``x``'s shape in ``np.empty_like(x)``'s
    memory order, or None for an ``x`` that is neither C- nor F-ordered."""
    if x.flags.c_contiguous:
        return ws.take(tag, x.shape, np.float32)
    if x.flags.f_contiguous:
        return ws.take(tag, x.shape[::-1], np.float32).T
    return None


def _rounded(x, fmt: str, ws=None, name: str = "a") -> np.ndarray:
    """``x`` rounded to ``fmt``: a matching handle's ``hi``, else rounded now.

    A handle's ``hi`` reaches BLAS in the memory order the rounding would
    have given the view (:mod:`repro.precision.prepared`): a transposed
    view of a BF16/TF32 handle without a twin is copied to row-major.
    With an arena, an FP16 operand large enough for the float32 rounding
    kernel is rounded into an arena buffer of the cast's memory order
    (``tc_<name>``) instead of a fresh array; a smaller one keeps the
    cast, whose two small allocations cost less than two arena takes.
    """
    if not isinstance(x, PreparedOperand):
        if fmt != "fp16":
            return round_to_format(x, fmt)
        if ws is not None and x.size >= _CAST_GATE:
            buf = _buffer_like(ws, f"tc_{name}", x)
            if buf is not None:
                return round_fp16_into(x, buf)
        return round_fp16(x)
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
        Scratch arena for the chunked path's per-chunk product buffer and
        the rounded copies of large FP16 operands (reused across calls
        instead of fresh temporaries).

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
    return _tcgemm(a, b, operand_format, chunk_k, out, ws)


def _tcgemm(a, b, operand_format, chunk_k, out, ws) -> np.ndarray:
    """:func:`tcgemm` on operands already validated (ndarrays or handles).

    The engines call this from their launch path, which has checked the
    operands' dimensions and shapes once already.
    """
    ar = _rounded(a, operand_format, ws, "a")
    br = _rounded(b, operand_format, ws, "b")
    k = a.shape[-1]

    if chunk_k is None or chunk_k >= k:
        if out is not None:
            return np.matmul(ar, br, out=out)
        return np.asarray(ar @ br, dtype=np.float32)

    if chunk_k <= 0:
        raise ValueError(f"chunk_k must be positive, got {chunk_k}")

    # In-place FP32 accumulation: one rounding per chunk, as on hardware.
    # The first chunk writes the accumulator directly; later chunks go
    # through one reused scratch buffer instead of a temporary per chunk.
    out_shape = a.shape[:-1] + (b.shape[-1],)
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
