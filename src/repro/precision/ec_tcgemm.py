"""Error-corrected Tensor-Core GEMM (Ootomo & Yokota 2022; paper §5.3).

Given FP32 operands, write ``A = Ã + ΔA`` and ``B = B̃ + ΔB`` where the
tilde terms are the FP16 roundings.  Then

    A @ B = Ã B̃  +  Ã ΔB  +  ΔA B̃  +  ΔA ΔB

The last term is O(u_fp16^2) ≈ 2^-22 relative and is dropped (the paper
does the same).  The three retained products each run on (emulated) Tensor
Cores.  Two refinements from the original method are modelled:

1. **Residual scaling.** ΔA has magnitude ~2^-11·|A|; rounding it directly
   to FP16 would push many entries into the subnormal range and lose their
   low bits.  The residual is therefore rounded as ``fp16(ΔA·2^11)``, and
   stored descaled, ``fp16(ΔA·2^11)·2^-11``: the split rounds it onto
   FP16's grid scaled by 2^-11, and the correction GEMMs come out
   descaled, with no scaling pass (both exact; see
   :func:`~repro.precision.rounding.ec_split_into`).
2. **FP32 combination outside the Tensor Core.** The correction terms are
   added to the main product in FP32, avoiding the Tensor-Core internal
   accumulator rounding that limits the naive Markidis scheme.

The result matches a plain FP32 SGEMM to within a few FP32 ulps — property
tests assert a relative error floor near ``2^-24`` rather than ``2^-11``.

With an arena, a thin ``B`` times a large ``A`` goes to BLAS as the pair
``[B̃ | ΔB]``: ``Ã B̃`` and ``Ã ΔB`` are one product of twice the width,
so ``A`` is streamed twice instead of three times.  A product's columns
do not depend on its width on the shapes paired (``_paired``), so the
result is bitwise the three products'.

On the host the hi/lo split runs in float32 arithmetic at a few ns per
element (:func:`~repro.precision.rounding.ec_split_into`), still a
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
from .rounding import ec_split_into
from .tcgemm import _tcgemm

__all__ = ["ec_tcgemm"]

#: With an arena, ``A_hi @ B_hi`` and ``A_hi @ B_lo`` run as one product
#: ``A_hi @ [B_hi | B_lo]`` when ``A`` holds at least ``_PAIR_MIN_A``
#: elements and ``B`` at most ``_PAIR_MAX_N`` columns: an ``A`` that does
#: not stay in a core's L2 is then streamed twice instead of three times
#: (0.90x on a 992x992 ``A``, 0.97x on 736x736; a smaller ``A`` or a
#: wider ``B`` loses to the copies and strided passes the pair costs).
#: ``A`` also has at least ``_PAIR_MIN_M`` rows: below that OpenBLAS can
#: take its small-matrix path for one width and not the other, which
#: sums in another order.
_PAIR_MIN_A = 1 << 19
_PAIR_MAX_N = 64
_PAIR_MIN_M = 128


def _paired(m: int, k: int, n: int) -> bool:
    """Whether an ``(m, k) @ (k, n)`` product (or each slice of a stack)
    multiplies ``B``'s halves as one pair."""
    return n <= _PAIR_MAX_N and m >= _PAIR_MIN_M and m * k >= _PAIR_MIN_A


def _mm(a, b, chunk_k, out, ws) -> np.ndarray:
    """One FP32 product of split halves (a single matmul unless chunked)."""
    if chunk_k is None:
        return np.matmul(a, b, out=out)
    return _tcgemm(a, b, "fp32", chunk_k, out, ws)


def _take(ws, tag: str, shape) -> np.ndarray:
    """A float32 scratch buffer: the arena's, or a fresh one."""
    if ws is None:
        return np.empty(shape, np.float32)
    return ws.take(tag, shape, np.float32)


def _split(x, ws, name: str, hi=None, lo=None):
    """Hi/lo FP16 split of one operand into ``hi``/``lo`` if given, else
    into workspace buffers (fresh ones in ``x``'s memory order without)."""
    _obs.counter("ec_split_elems", x.size)
    if hi is None:
        if ws is None:
            x = np.asarray(x, dtype=np.float32)
            hi, lo = np.empty_like(x), np.empty_like(x)
        else:
            hi = ws.take(f"ec_{name}_hi", x.shape, np.float32)
            lo = ws.take(f"ec_{name}_lo", x.shape, np.float32)
    return ec_split_into(x, hi, lo)


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


def _b_pair(b, ws):
    """``[B_hi | B_lo]``, row-major in one arena buffer: a handle's split
    copied in, or a fresh one split straight into the two halves.  It
    takes the unpaired path's ``ec_b_hi`` buffer, which no paired
    product uses, so pairing grows the arena by no buffer of its own."""
    n = b.shape[-1]
    pair = ws.take("ec_b_hi", b.shape[:-1] + (2 * n,), np.float32)
    hi, lo = pair[..., :n], pair[..., n:]
    if isinstance(b, PreparedOperand) and b.fmt == "ec":
        np.copyto(hi, b.hi)
        np.copyto(lo, b.lo)
    else:
        _split(getattr(b, "array", b), ws, "b", hi, lo)
    return pair, hi


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
        Scratch arena: the hi/lo operand splits and the correction
        products reuse arena buffers instead of allocating full-size
        temporaries per call — the dominant allocation cost of the SBR
        hot loop under the EC policy.  With an arena a thin ``B`` times
        a large ``A`` is multiplied as the pair ``[B_hi | B_lo]``
        (``_paired``).

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
    operands' dimensions and shapes once already.  The stored ``lo``
    halves are descaled (:func:`~repro.precision.rounding.ec_split_into`),
    so the correction products come out descaled and the combination is
    two additions.
    """
    a_hi, a_lo = _hi_lo(a, ws, "a")
    m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
    out_shape = a.shape[:-1] + (n,)
    if ws is not None and _paired(m, k, n):
        # The main product and the B correction in one call.
        pair, b_hi = _b_pair(b, ws)
        prod = _mm(a_hi, pair, chunk_k,
                   ws.take("ec_corr_b", out_shape[:-1] + (2 * n,), np.float32), ws)
        main, corr_b = prod[..., :n], prod[..., n:]
    else:
        b_hi, b_lo = _hi_lo(b, ws, "b")
        main = out = _mm(a_hi, b_hi, chunk_k, out, ws)
        corr_b = _mm(a_hi, b_lo, chunk_k, _take(ws, "ec_corr_b", out_shape), ws)
    corr = _mm(a_lo, b_hi, chunk_k, _take(ws, "ec_corr_a", out_shape), ws)
    # FP32 combination outside the (emulated) Tensor Core: bitwise
    # ``main + (corr_a + corr_b) * 2^-11`` of the products of scaled
    # residuals, since these corrections are those times 2^-11 exactly,
    # and so is their sum.
    np.add(corr, corr_b, out=corr)
    return np.add(main, corr, out=out)
