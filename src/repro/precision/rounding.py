"""Rounding FP32 values to Tensor-Core operand formats.

The ``round_*`` functions take an array (any float dtype) and return a
**float32** array whose values are exactly representable in the target
format; the FP16 split functions return (or fill) a float32 ``hi``/``lo``
pair.  Keeping the results in float32 lets downstream NumPy matmuls model
the Tensor-Core pattern "low-precision multiply, FP32 accumulate" directly.

FP16 rounding has two implementations with bitwise equal results:
NumPy's float16 cast, which the tests use as the oracle, and
:func:`_round_fp16_chunk`, which rounds in float32 arithmetic.  The cast
costs about 10 ns per element on well-scaled data and 30–90 ns where
many values fall in FP16's subnormal range, as the residuals and small
entries of SBR's operands do; the float32 kernel costs about 2 ns per
element on any data, plus about ten ufunc calls.  The splits
(:func:`split_fp16_into`, :func:`split_fp16` through it, and the
EC-TCGEMM split :func:`ec_split_into`, which stores ``lo`` descaled)
always use the kernel.  :func:`round_fp16` and :func:`round_fp16_into`,
which the FP16 Tensor-Core engine uses, keep the cast for operands under
``_CAST_GATE`` elements, where the kernel's fixed cost is larger than
the cast's, and use the kernel above it.

Formats
-------
========  ========  ========  =====================
format    mantissa  exponent  unit roundoff (2^-(p))
========  ========  ========  =====================
FP16      10 + 1    5         2^-11 ≈ 4.9e-4
BF16      7 + 1     8         2^-8  ≈ 3.9e-3
TF32      10 + 1    8         2^-11 ≈ 4.9e-4
FP32      23 + 1    8         2^-24 ≈ 6.0e-8
========  ========  ========  =====================

The paper's "machine epsilon of Tensor Core" is the FP16/TF32 unit roundoff,
~1e-4; Tables 3/4 check that band-reduction errors stay at that level.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FP16_EPS",
    "BF16_EPS",
    "TF32_EPS",
    "FP32_EPS",
    "round_fp16",
    "round_fp16_into",
    "round_bf16",
    "round_tf32",
    "round_to_format",
    "split_fp16",
    "split_fp16_into",
    "ec_split_into",
]

#: Unit roundoff of IEEE half precision (10 explicit mantissa bits).
FP16_EPS: float = float(2.0**-11)
#: Unit roundoff of bfloat16 (7 explicit mantissa bits).
BF16_EPS: float = float(2.0**-8)
#: Unit roundoff of NVIDIA TF32 (10 explicit mantissa bits, FP32 exponent).
TF32_EPS: float = float(2.0**-11)
#: Unit roundoff of IEEE single precision.
FP32_EPS: float = float(2.0**-24)

#: Exponent-scaling factor used by the Ootomo–Yokota residual split: the
#: FP16 mantissa holds 11 significant bits, so the residual ``x - fp16(x)``
#: is scaled by 2^11 before its own FP16 rounding to avoid underflow.
OOTOMO_SCALE: float = float(2.0**11)


#: Below this many elements :func:`round_fp16` and :func:`round_fp16_into`
#: use NumPy's float16 cast: the float32 kernel's ufunc calls cost
#: more than the cast of a well-scaled operand that small
#: (docs/performance.md, "FP16 rounding").
_CAST_GATE = 2048


def round_fp16(x) -> np.ndarray:
    """Round ``x`` to IEEE FP16 and return the values as float32.

    Bitwise NumPy's float16 conversion (round-to-nearest-even, with IEEE
    overflow to inf and gradual underflow to subnormals), which is the
    behaviour of the hardware conversion instruction feeding Tensor Cores.
    The one exception is a NaN's payload: a NaN stays a NaN of its sign,
    but above the gate it keeps the input's payload bits (quietened),
    where the cast keeps only the top ten.
    The result has ``x``'s memory order, as the cast's does
    (``np.empty_like``): BLAS sums a transposed operand in another order.
    """
    arr = np.asarray(x, dtype=np.float32)
    if arr.size < _CAST_GATE:
        return arr.astype(np.float16).astype(np.float32)
    return _fp16_into(arr, np.empty_like(arr), None)[0]


def round_fp16_into(x, out: np.ndarray) -> np.ndarray:
    """:func:`round_fp16` written into a caller-owned float32 buffer.

    ``out`` has ``x``'s shape, any strides, and does not overlap ``x``.
    """
    arr = np.asarray(x, dtype=np.float32)
    if arr.size < _CAST_GATE:
        out[...] = arr.astype(np.float16)
        return out
    return _fp16_into(arr, out, None)[0]


def _round_mantissa_f32(x, drop_bits: int) -> np.ndarray:
    """Round float32 ``x`` to ``23 - drop_bits`` mantissa bits (RNE).

    This implements round-to-nearest-even directly on the bit pattern,
    which is exactly what the TF32 conversion inside Tensor Cores and the
    BF16 truncation unit do (modulo their treatment of NaN payloads, which
    we do not model).
    """
    arr = np.asarray(x, dtype=np.float32)
    bits = arr.view(np.uint32).copy()
    # Round-to-nearest-even on the dropped low bits:
    #   bias = (1 << (drop-1)) - 1 + guard-bit-of-result
    lsb = np.uint32(1) << np.uint32(drop_bits)
    guard = (bits >> np.uint32(drop_bits)) & np.uint32(1)
    bias = (lsb >> np.uint32(1)) - np.uint32(1) + guard
    bits = bits + bias
    bits &= ~np.uint32(lsb - np.uint32(1))
    out = bits.view(np.float32)
    # Preserve NaNs (the bias addition may have corrupted payloads / turned
    # a NaN into inf is impossible since exponent saturates, but be safe).
    nan_mask = np.isnan(arr)
    if np.any(nan_mask):
        out = out.copy()
        out[nan_mask] = np.float32(np.nan)
    return out


def round_bf16(x) -> np.ndarray:
    """Round ``x`` to bfloat16 (8-bit exponent, 7-bit mantissa) as float32."""
    return _round_mantissa_f32(x, drop_bits=16)


def round_tf32(x) -> np.ndarray:
    """Round ``x`` to TF32 (8-bit exponent, 10-bit mantissa) as float32.

    TF32 keeps the FP32 exponent, so unlike FP16 it neither overflows nor
    underflows for FP32-range inputs; only the mantissa is shortened.
    """
    return _round_mantissa_f32(x, drop_bits=13)


_ROUNDERS = {
    "fp16": round_fp16,
    "bf16": round_bf16,
    "tf32": round_tf32,
    "fp32": lambda x: np.asarray(x, dtype=np.float32),
}


def round_to_format(x, fmt: str) -> np.ndarray:
    """Round ``x`` to the named format (``fp16``/``bf16``/``tf32``/``fp32``)."""
    try:
        rounder = _ROUNDERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown operand format {fmt!r}; expected one of {sorted(_ROUNDERS)}"
        ) from None
    return rounder(x)


def split_fp16(x, *, scale: float = OOTOMO_SCALE) -> tuple[np.ndarray, np.ndarray]:
    """Ootomo–Yokota high/low FP16 split of an FP32 array.

    Returns ``(hi, lo)`` with ``hi = fp16(x)`` and ``lo = fp16((x - hi) *
    scale)``, both as float32.  The caller reconstructs
    ``x ≈ hi + lo / scale``.  Scaling the residual by ``2^11`` before
    rounding keeps its significant bits above the FP16 underflow threshold —
    this is the "scale the matrix to reduce underflow" step of the paper's
    Section 5.3.

    ``hi`` and ``lo`` keep ``x``'s memory order (``np.empty_like``): BLAS
    sums a transposed operand in another order, so a C-ordered split of
    an F-ordered ``x`` would change the products' bits.
    """
    arr = np.asarray(x, dtype=np.float32)
    return split_fp16_into(arr, np.empty_like(arr), np.empty_like(arr), scale=scale)


#: Elements per chunk of :func:`split_fp16_into`: its scratch plus the
#: chunk's ``x``/``hi``/``lo`` stay in a core's L2.
_SPLIT_CHUNK = 1 << 15


def _const(value, dtype) -> np.ndarray:
    """A read-only 0-d array: a ufunc takes it with less per-call overhead
    than a NumPy scalar, and no ``out=`` can change it."""
    a = np.array(value, dtype)
    a.flags.writeable = False
    return a


def _bits(value: float) -> int:
    """The float32 bit pattern of ``value``."""
    return int(np.array(value, np.float32).view(np.uint32))


_ABS_BITS = _const(0x7FFFFFFF, np.uint32)
_SIGN_BIT = _const(0x80000000, np.uint32)
_EXP_BITS = _const(0x7F800000, np.uint32)
_SHIFT = _const(13 << 23, np.uint32)  # 2^e -> 2^(e + 13): FP32 ulp -> FP16 ulp
#: Bounds of ``2^e`` on FP16's grid: its smallest normal and its top binade.
_FP16_GRID = (_const(_bits(2.0**-14), np.uint32), _const(_bits(2.0**15), np.uint32))
#: The same grid scaled by 2^-11, on which the EC split rounds its residual.
_EC_LO_GRID = (_const(_bits(2.0**-25), np.uint32), _const(_bits(2.0**4), np.uint32))
#: ``|v|`` at or above this rounds past FP16's largest finite value.
_OVERFLOW_BITS = _bits(65520.0)
_OVER = _const(2.0**112, np.float32)  # 2^16 * 2^112 = 2^128 overflows
_UNDER = _const(2.0**-112, np.float32)


def _round_fp16_chunk(v, out, f, u, grid=_FP16_GRID, rescale=None) -> bool:
    """``out = fp16(v)`` in float32 arithmetic, bitwise NumPy's cast.

    With ``e`` the exponent of ``|v|`` and ``C = 2^(min(max(e, -14), 15)
    + 13)``, ``|v| + C`` has an FP32 ulp of ``2^(e-10)`` (``2^-24`` in
    FP16's subnormal range), so FP32's round-to-nearest-even rounds
    ``|v|`` to FP16's grid and ``- C`` recovers it exactly.  ``|v|``,
    ``e`` and ``C`` come from the bits: two ANDs, one clip of the
    exponent field and one integer add.  A result of ``2^16`` or more is
    scaled past FP32's range and back, which leaves ``inf`` where FP16
    overflows; ``rescale=None`` does that only when some ``|v|`` is at
    least 65520 or is not finite, one reduction over ``|v|``.  The sign
    of ``v`` is ORed back last (the result so far has a clear sign bit),
    so ``-0`` and tiny negatives give ``-0``.  NaN and inf propagate.

    ``grid`` holds the bit patterns of the clamp bounds of ``2^e``:
    ``_EC_LO_GRID`` rounds to FP16's grid scaled by 2^-11 (exact, since
    every value on it is an FP32 normal).  ``f`` (float32) and ``u``
    (uint32) are scratch of ``v``'s shape; ``f`` may be ``out`` unless
    ``out`` is ``v``.  Returns whether the overflow scaling ran.
    """
    fb = f.view(np.uint32)
    vb = v.view(np.uint32)
    np.bitwise_and(vb, _ABS_BITS, out=fb)  # f = |v|
    if rescale is None:
        rescale = np.maximum.reduce(fb, axis=None) >= _OVERFLOW_BITS
    np.bitwise_and(fb, _EXP_BITS, out=u)  # c = 2^e
    np.clip(u, *grid, out=u)
    np.add(u, _SHIFT, out=u)
    c = u.view(np.float32)
    np.add(f, c, out=f)
    np.subtract(f, c, out=f)
    if rescale:
        np.multiply(f, _OVER, out=f)
        np.multiply(f, _UNDER, out=f)
    np.bitwise_and(vb, _SIGN_BIT, out=u)
    np.bitwise_or(fb, u, out=out.view(np.uint32))
    return rescale


def _axis_order(a) -> list:
    """``a``'s axes from the largest stride to the smallest."""
    strides = a.strides
    return sorted(range(a.ndim), key=lambda i: -abs(strides[i]))


def _row_chunks(arrays: tuple):
    """Matching views of same-shape ``arrays`` of at most ``_SPLIT_CHUNK``
    elements each, split along the leading axis (recursing into a
    sub-array that alone is too large)."""
    x = arrays[0]
    if x.ndim == 1:
        step = _SPLIT_CHUNK
    elif x[0].size > _SPLIT_CHUNK:
        for i in range(x.shape[0]):
            yield from _row_chunks(tuple(a[i] for a in arrays))
        return
    else:
        step = _SPLIT_CHUNK // x[0].size
    for i in range(0, x.shape[0], step):
        yield tuple(a[i:i + step] for a in arrays)


def split_fp16_into(
    x, hi: np.ndarray, lo: np.ndarray, *, scale: float = OOTOMO_SCALE
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`split_fp16` written into caller-owned float32 buffers.

    ``hi`` and ``lo`` have ``x``'s shape, any strides, and do not overlap
    ``x``.  The FP16 roundings run in float32 arithmetic
    (:func:`_round_fp16_chunk`), bitwise equal to NumPy's float16 cast
    but without its slow path for values in FP16's subnormal range.  The
    work goes through ``x`` in chunks of ``_SPLIT_CHUNK`` elements, so
    the per-call scratch (two float32 buffers and one uint32 buffer)
    stays cache-sized; there is no module state, so calls on different
    threads are safe.
    """
    return _fp16_into(np.asarray(x, dtype=np.float32), hi, lo, scale)


def ec_split_into(x, hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The EC-TCGEMM operand split: :func:`split_fp16_into` with ``lo``
    stored descaled, ``lo = fp16((x - hi) * 2^11) * 2^-11``.

    The residual is rounded straight onto FP16's grid scaled by 2^-11,
    so the split makes no scaling pass, and the EC product's correction
    GEMMs come out already descaled.  Both are exact: a nonzero stored
    ``lo`` is at least 2^-35 and its products with FP16 values at least
    2^-59, so every scaled partial sum stays an FP32 normal and the
    scaled product is bitwise the unscaled one times 2^-11.  This is
    what the EC-TCGEMM hot path uses, per launch and in prepared handles.
    """
    return _fp16_into(np.asarray(x, dtype=np.float32), hi, lo, None)


def _fp16_into(arr, hi, lo, scale=OOTOMO_SCALE) -> tuple:
    """Round float32 ``arr`` into ``hi`` and, unless ``lo`` is None, its
    residual into ``lo``: scaled by ``scale`` and rounded to FP16
    (:func:`split_fp16_into`), or with ``scale=None`` rounded to FP16's
    grid scaled by 2^-11 (:func:`ec_split_into`)."""
    if arr.size == 0:
        return hi, lo
    # Walk every array in hi's memory order, which the scratch shares.
    arrays = (arr, hi) if lo is None else (arr, hi, lo)
    if not hi.flags.c_contiguous:
        axes = _axis_order(hi)
        arrays = tuple(a.transpose(axes) for a in arrays)
    n = min(arr.size, _SPLIT_CHUNK)
    chunks = (arrays,) if n == arr.size else _row_chunks(arrays)
    u = np.empty(n, np.uint32)
    # A strided x, hi or lo (a column slice, a transposed view) costs a
    # short inner loop per row in every pass, so it is read or written
    # once and the passes run on a contiguous copy of x in ``g``.
    g = None
    if not all(a.flags.c_contiguous for a in arrays):
        g = np.empty(n, np.float32)
    f = None if g is None and lo is None else np.empty(n, np.float32)
    if scale is None:
        lo_grid, scale32 = _EC_LO_GRID, None
    else:
        lo_grid, scale32 = _FP16_GRID, np.array(scale, np.float32)
    # A finite residual is at most half of FP16's top ulp, 16: scaled by
    # at most 2^11 it cannot round past 65504, and a non-finite one stays
    # non-finite, so lo's rounding needs no overflow scaling.
    lo_rescale = None if scale is not None and abs(scale) > OOTOMO_SCALE else False
    for xs, hs, *ls in chunks:
        us = u[:xs.size].reshape(xs.shape)
        if g is None:
            # In place: hi is its own rounding scratch, lo the residual's.
            v, h = xs, hs
            r = ls[0] if ls else None
        else:
            v = r = g[:xs.size].reshape(xs.shape)
            h = f[:xs.size].reshape(xs.shape)
            np.copyto(v, xs)
        _round_fp16_chunk(v, h, h, us)
        if h is not hs:
            np.copyto(hs, h)
        if ls:
            np.subtract(v, h, out=r)
            if scale32 is not None:
                np.multiply(r, scale32, out=r)
            _round_fp16_chunk(r, ls[0], f[:xs.size].reshape(xs.shape), us,
                              lo_grid, lo_rescale)
    return hi, lo
