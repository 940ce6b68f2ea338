"""The gated FP16 rounding: NumPy's cast below the gate, the float32 kernel above.

``round_fp16`` switches at ``_CAST_GATE`` elements from NumPy's float16
cast to ``_round_fp16_chunk``.  On both sides it must give the cast's
bits in the cast's memory order, since BLAS sums a transposed operand in
another order.  The Tensor-Core engine's arena path (operands rounded
into ``tc_a``/``tc_b`` arena buffers) must give the products the
allocating path gives.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gemm.engine import make_engine
from repro.perf import Workspace
from repro.precision.rounding import (
    _CAST_GATE,
    _round_fp16_chunk,
    ec_split_into,
    round_fp16,
    round_fp16_into,
    split_fp16_into,
)
from repro.precision.tcgemm import _buffer_like, tcgemm
from sweep_split_fp16 import mismatches

SUB = 2.0**-24  # FP16's smallest subnormal
EDGES = [
    0.0, -0.0, SUB, -SUB, SUB / 2, 1.5 * SUB, 2.0**-15, 2.0**-14 - SUB,
    2.0**-14, 65504.0, 65519.99, 65520.0, -65520.0, np.inf, -np.inf, np.nan,
    -np.nan, 1.0, 1.0 + 2.0**-11, 1e-30, 1e38,
]


def cast(x):
    return np.asarray(x, np.float32).astype(np.float16).astype(np.float32)


def data(size, rng):
    """``size`` float32 values: every edge case, then values spread over
    FP16's subnormal, normal and overflow ranges."""
    x = rng.standard_normal(size) * np.exp(rng.uniform(-25, 12, size))
    x[: len(EDGES)] = EDGES
    return x.astype(np.float32)


def layouts(x2d):
    """C-ordered, F-ordered, column-strided, row-strided, transposed and
    3-D views of the same values."""
    return {
        "c": x2d,
        "f": np.asfortranarray(x2d),
        "column_slice": x2d[:, 1:-1],
        "row_step": x2d[::2],
        "transposed": x2d.T,
        "stack_3d": x2d.reshape(2, -1, x2d.shape[1]),
    }


def same_bits(got, want):
    assert got.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# Sizes on both sides of the gate, in (rows, cols) of the 2-D base array.
SHAPES = {"small": (8, 16), "below_gate": (2, (_CAST_GATE - 1) // 2),
          "at_gate": (16, _CAST_GATE // 16), "large": (300, 40)}


@pytest.mark.parametrize("size", list(SHAPES))
@pytest.mark.parametrize("layout", ["c", "f", "column_slice", "row_step",
                                    "transposed", "stack_3d"])
def test_round_fp16_is_the_cast(rng, size, layout):
    rows, cols = SHAPES[size]
    x = layouts(data(rows * cols, rng).reshape(rows, cols))[layout]
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = round_fp16(x), cast(x)
    same_bits(got, want)
    assert got.strides == want.strides


@pytest.mark.parametrize("size", ["below_gate", "at_gate", "large"])
def test_round_fp16_into_is_the_cast(rng, size):
    rows, cols = SHAPES[size]
    x = data(rows * cols, rng).reshape(rows, cols)
    for view in layouts(x).values():
        out = np.full(view.shape, 7.0, np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            assert round_fp16_into(view, out) is out
            same_bits(out, cast(view))


def test_gate_boundary_both_sides(rng):
    for n in (_CAST_GATE - 1, _CAST_GATE):
        x = data(n, rng)
        with np.errstate(over="ignore", invalid="ignore"):
            same_bits(round_fp16(x), cast(x))


def test_edges_by_value(rng):
    # Both paths, on the edge values alone and tiled past the gate.
    x = np.array(EDGES, np.float32)
    big = np.tile(x, _CAST_GATE // len(EDGES) + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for arr in (x, big):
            got = round_fp16(arr)
            same_bits(got, cast(arr))
    got = got[: len(EDGES)]
    assert np.signbit(got[1]) and not np.signbit(got[0])  # -0 stays -0
    assert got[2] == SUB and got[4] == 0.0  # a tie to even underflows to 0
    assert got[9] == got[10] == 65504.0  # 65519.99 still rounds down
    assert got[11] == np.inf and got[12] == -np.inf  # 65520 overflows
    assert np.isnan(got[15]) and np.isnan(got[16])


@pytest.mark.parametrize("view", ["c", "f", "row_of_one", "column_of_one",
                                  "stack_3d", "f_stack_3d", "column_slice"])
def test_arena_buffer_has_the_cast_layout(view):
    base = np.zeros((6, 10), np.float32)
    x = {"c": base, "f": np.asfortranarray(base), "row_of_one": base[:1],
         "column_of_one": base[:, :1], "stack_3d": base.reshape(2, 3, 10),
         "f_stack_3d": np.asfortranarray(base.reshape(2, 3, 10)),
         "column_slice": base[:, 2:5]}[view]
    buf = _buffer_like(Workspace(), "t", x)
    if x.flags.c_contiguous or x.flags.f_contiguous:
        assert buf.strides == np.empty_like(x).strides
    else:
        assert buf is None  # the rounding allocates its output instead


@pytest.mark.parametrize("shapes", [((96, 40), (40, 64)), ((120, 88), (88, 8)),
                                    ((8, 300), (300, 8))])
@pytest.mark.parametrize("f_order", [False, True])
def test_arena_rounding_gives_the_same_product(rng, shapes, f_order):
    (m, k), (_, n) = shapes
    a = data(m * k, rng).reshape(m, k) * np.float32(1e-4)
    b = rng.standard_normal((k, n)).astype(np.float32)
    a = np.nan_to_num(a, posinf=1.0, neginf=-1.0)
    if f_order:
        a = np.asfortranarray(a)
    ws = Workspace()
    eng = make_engine("fp16_tc", workspace=ws)
    out = np.empty((m, n), np.float32)
    with np.errstate(over="ignore"):
        want = tcgemm(a, b)
        same_bits(tcgemm(a, b, ws=ws), want)
        same_bits(eng.gemm(a, b, out=out), want)
    if a.size >= _CAST_GATE:
        assert "tc_a" in ws.stats()["by_tag"]


# The kernel skips its overflow scaling on a chunk whose |v| stays below
# 65520 and keeps it on any other; both kinds of chunk, and the split's
# lo after hi overflowed, must still be the cast.
OVERFLOWING = [65519.99, 65520.0, -65520.0, 1e5, np.inf, -np.inf, np.nan]


def fp16_subnormals(size, rng):
    """Values in FP16's subnormal range, ties and exact grid points included."""
    x = rng.uniform(-2.0**-14, 2.0**-14, size)
    x[:4] = [SUB, -SUB, SUB / 2, 1.5 * SUB]
    return x.astype(np.float32)


def run_kernel(x):
    out, f = np.empty_like(x), np.empty_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = _round_fp16_chunk(x, out, f, np.empty(x.shape, np.uint32))
    return out, scaled


def test_kernel_chunk_mixing_subnormals_and_overflow(rng):
    x = fp16_subnormals(_CAST_GATE, rng)
    x[100:100 + len(OVERFLOWING)] = OVERFLOWING
    out, scaled = run_kernel(x)
    assert scaled
    with np.errstate(over="ignore", invalid="ignore"):
        same_bits_or_nan(out, cast(x))
        same_bits_or_nan(round_fp16(x), cast(x))
    assert out[100] == 65504.0 and out[101] == np.inf and out[102] == -np.inf
    assert out[103] == np.inf and np.isnan(out[106])


def test_kernel_all_subnormal_chunk_skips_the_scaling(rng):
    x = fp16_subnormals(_CAST_GATE, rng)
    out, scaled = run_kernel(x)
    assert not scaled
    same_bits(out, cast(x))
    x[7] = 65519.99  # the largest |v| that still rounds to a finite value
    out, scaled = run_kernel(x)
    assert not scaled and out[7] == 65504.0
    same_bits(out, cast(x))
    x[8] = -65520.0  # the smallest |v| that overflows
    out, scaled = run_kernel(x)
    assert scaled and out[8] == -np.inf
    with np.errstate(over="ignore"):
        same_bits(out, cast(x))


@pytest.mark.parametrize("split,descaled", [(split_fp16_into, False),
                                            (ec_split_into, True)])
def test_split_lo_after_hi_overflowed(rng, split, descaled):
    x = fp16_subnormals(_CAST_GATE, rng)
    x[100:100 + len(OVERFLOWING)] = OVERFLOWING
    hi, lo = np.empty_like(x), np.empty_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        split(x, hi, lo)
        assert mismatches(x, hi, lo, descaled=descaled).size == 0
    # 65520 and 1e5 overflow hi, so their residual is -inf; inf leaves NaN.
    assert hi[101] == np.inf and lo[101] == -np.inf and lo[102] == np.inf
    assert lo[103] == -np.inf and np.isnan(lo[104]) and np.isnan(lo[106])
    assert lo[100] != 0.0  # 65519.99 keeps its residual


def same_bits_or_nan(got, want):
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    same_bits(np.where(nan, 0, got).astype(np.float32),
              np.where(nan, 0, want).astype(np.float32))
