"""Prepared Tensor-Core operands: an operand's low-precision form, computed once.

A Tensor-Core GEMM transforms both operands before it multiplies: the
FP16/BF16/TF32 engines round them to the operand format, the EC engine
splits them into an FP16 ``hi``/``lo`` pair (Ootomo & Yokota).  SBR
multiplies the *same* matrices many times: the block-constant trailing
matrix ``OA`` once per panel, and the block's growing ``W``/``Y``/``OAW``
buffers, whose columns stay put once written, in several GEMMs per
panel.  :func:`prepare` transforms such an operand once and returns a
:class:`PreparedOperand`; the engines take the handle in place of the
array, and every product is bitwise what the array would give.

Layout
------
BLAS sums a transposed operand in another order (OpenBLAS on a
transposed ``sgemm`` operand gives different bits for about one shape in
ten), so a handle hands BLAS its operand in the memory order the
engine's per-launch transformation would have produced:

- the EC split through an arena and the BF16/TF32 roundings are
  row-major (C order) whatever the view;
- the FP16 rounding and the EC split without an arena keep the view's
  order (an FP16 rounding into the arena takes a buffer of that order).

For the row-major formats a transposed view needs a row-major copy.  A
buffer that is filled column block by column block (``cols=``) therefore
gets a *transposed twin*: C-contiguous ``(N, M)`` copies of ``hi``/``lo``
written when a column block is prepared, so ``h.T`` and its views are
row-major without a copy, and a column block is transformed contiguously
into its twin rows and then copied into the ``(M, N)`` block instead of
being transformed as a strided slice.  A buffer whose transpose is never
multiplied (``twins=False``; SBR's ``OAW``) has no twins: its column
blocks are transformed in place, and its untransposed views are
row-major as they are.
"""

from __future__ import annotations

import numpy as np

from ..obs import spans as _obs
from .rounding import ec_split_into, round_fp16_into, round_to_format

__all__ = ["PreparedOperand", "prepare"]

#: Formats whose per-launch rounding writes row-major output.
ROW_MAJOR = ("bf16", "tf32")


def _transform(fmt: str, x, hi, lo) -> None:
    """Write ``x``'s transformation in ``fmt`` into ``hi`` (and ``lo``)."""
    if fmt == "ec":
        _obs.counter("ec_split_elems", x.size)
        ec_split_into(x, hi, lo)
    elif fmt == "fp16":
        round_fp16_into(x, hi)
    else:
        np.copyto(hi, round_to_format(x, fmt))


class PreparedOperand:
    """An operand with its Tensor-Core form: ``hi`` (and the EC ``lo``).

    ``fmt`` is ``"ec"`` (``hi``/``lo`` are the FP16 split, ``lo`` stored
    descaled by 2^-11: :func:`~repro.precision.rounding.ec_split_into`)
    or an operand format, ``"fp16"``, ``"bf16"`` or ``"tf32"`` (``hi`` is the rounded
    operand, ``lo`` is None).  ``hi_t``/``lo_t`` are the transposed twins
    of a column-grown buffer (module docstring), or None.

    Basic indexing (``h[:, :k]``, ``h[r:]``) and ``h.T`` return views:
    handles whose arrays are the same views of the parent's buffers.  A
    handle is valid while its source's contents are unchanged; after
    writing into the source, :meth:`resplit` the view over the written
    region (the transformation is elementwise, so the refreshed handle is
    bitwise what a fresh :func:`prepare` would give).
    """

    __slots__ = ("array", "fmt", "hi", "lo", "hi_t", "lo_t")

    def __init__(self, array, fmt, hi, lo=None, hi_t=None, lo_t=None) -> None:
        self.array = array
        self.fmt = fmt
        self.hi = hi
        self.lo = lo
        self.hi_t = hi_t
        self.lo_t = lo_t

    @property
    def shape(self) -> tuple:
        return self.array.shape

    @property
    def ndim(self) -> int:
        return self.array.ndim

    @property
    def T(self) -> "PreparedOperand":
        if self.hi_t is None:
            lo = None if self.lo is None else self.lo.T
            return PreparedOperand(self.array.T, self.fmt, self.hi.T, lo)
        return PreparedOperand(self.array.T, self.fmt, self.hi_t, self.lo_t,
                               self.hi, self.lo)

    def __getitem__(self, key) -> "PreparedOperand":
        lo = None if self.lo is None else self.lo[key]
        if self.hi_t is None:
            return PreparedOperand(self.array[key], self.fmt, self.hi[key], lo)
        # The twins take the key with its last two (row and column) parts
        # swapped.
        parts = key if isinstance(key, tuple) else (key,)
        parts += (slice(None),) * (self.array.ndim - len(parts))
        tkey = parts[:-2] + (parts[-1], parts[-2])
        lo_t = None if self.lo_t is None else self.lo_t[tkey]
        return PreparedOperand(self.array[key], self.fmt, self.hi[key], lo,
                               self.hi_t[tkey], lo_t)

    def resplit(self) -> "PreparedOperand":
        """Re-transform the source's current contents, in place."""
        hi_t = self.hi_t
        if hi_t is None:
            _transform(self.fmt, self.array, self.hi, self.lo)
            return self
        # Transform into whichever orientation has contiguous rows (the
        # twin rows of a column block), then copy it into the other.
        item = hi_t.itemsize
        if hi_t.strides[-1] == item and hi_t.strides[-2] == hi_t.shape[-1] * item:
            src = (self.array.swapaxes(-1, -2), hi_t, self.lo_t)
            dst = (self.hi, self.lo)
        else:
            src, dst = (self.array, self.hi, self.lo), (hi_t, self.lo_t)
        _transform(self.fmt, *src)
        for out, done in zip(dst, src[1:]):
            if out is not None:
                np.copyto(out, done.swapaxes(-1, -2))
        return self


def prepare(a, fmt: str, *, ws=None, name: str = "prep",
            cols: "int | None" = None, twins: bool = True) -> PreparedOperand:
    """Transform ``a`` once for repeated use as a ``fmt`` GEMM operand.

    With a workspace the buffers live in the arena under
    ``prep:<fmt>_<name>_*`` tags.  Only a prepared operand takes a tag
    that starts with ``prep:``, so whatever ``name`` is, later unprepared
    calls through the same arena (whose per-launch splits and roundings
    take ``ec_*``/``tc_*`` tags) do not clobber the handle.  A later
    ``prepare`` with the same ``fmt`` and ``name`` reuses (and
    overwrites) the buffers, invalidating the previous handle.

    ``cols`` prepares only the leading ``cols`` columns of ``a`` (its
    last axis); the rest of the handle holds arbitrary bytes until a view
    over them is :meth:`~PreparedOperand.resplit` (a buffer that is
    filled column block by column block pays each column's transformation
    once).  Such a buffer gets transposed twins when ``fmt`` hands BLAS
    row-major operands (module docstring), unless ``twins=False``.  It
    may be a stack of matrices (SBR's ``(2, M, nb)`` ``W``/``Y`` pair):
    ``h[j]`` is then matrix ``j``'s handle, and one view ``h[:, :, k0:k1]``
    refreshes a column block of every matrix at once.
    """
    a = np.asarray(a, dtype=np.float32)
    row_major = fmt in ROW_MAJOR or (fmt == "ec" and ws is not None)

    def take(part, shape):
        if ws is not None and (row_major or a.flags.c_contiguous):
            return ws.take(f"prep:{fmt}_{name}_{part}", shape, np.float32)
        if row_major:
            return np.empty(shape, np.float32)
        return np.empty_like(a)  # the source's memory order

    split = fmt == "ec"
    hi = take("hi", a.shape)
    lo = take("lo", a.shape) if split else None
    hi_t = lo_t = None
    if cols is not None and row_major and twins:
        t_shape = a.shape[:-2] + a.shape[:-3:-1]
        hi_t = take("hi_t", t_shape)
        lo_t = take("lo_t", t_shape) if split else None
    h = PreparedOperand(a, fmt, hi, lo, hi_t, lo_t)
    if cols is None:
        h.resplit()
    else:
        h[(slice(None),) * (a.ndim - 1) + (slice(0, cols),)].resplit()
    return h
