"""Per-call transients: allocation pins that hold under any C allocator.

A steady-state call reuses the pages it already owns only while its
freed transients stay small: an n×n temporary freed mid-call is what
lets glibc hand the heap top back to the kernel and fault it in again on
the next call (docs/performance.md, "Page faults per call").  The page
faults themselves depend on the allocator; these pins measure the
allocations behind them with ``tracemalloc``, which NumPy reports its
array buffers to.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from repro.gemm.engine import make_engine
from repro.resilience import ResilienceContext
from repro.sbr.wy import sbr_wy
from repro.validation import Validated, as_symmetric_matrix


def _sym(n, seed=0):
    x = np.random.default_rng(seed).standard_normal((n, n))
    return (x + x.T) / 2


def _peak(fn):
    """Peak bytes ``fn()`` allocates above what was live when it started."""
    fn()  # warm caches (lazy imports, memoized grids) outside the window
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    return peak - base


def test_output_scan_allocates_under_one_percent_of_the_array():
    # The band scan at the bulge entry is an n×n float64 array.
    ctx = ResilienceContext()
    for arr in (_sym(384), _sym(256).astype(np.float32)):
        assert _peak(lambda: ctx.check_array(arr, site="t")) < arr.nbytes / 100


def test_symmetrized_copy_is_its_output_plus_one_tile():
    from repro.validation import _TILE

    a = _sym(512)
    a[3, 300] += 1e-12  # a tolerated skew: the mirror must overwrite it
    tile = _TILE * _TILE * a.itemsize
    for dtype in (None, np.float32):
        out_bytes = a.size * np.dtype(dtype or a.dtype).itemsize
        assert _peak(lambda: as_symmetric_matrix(a, dtype=dtype)) <= out_bytes + tile


def test_sbr_makes_one_working_copy_of_float64_input():
    # fp32 working precision: float64 input, Validated (the drivers'
    # path) or checked by sbr_wy itself, costs what float32 input does,
    # whose working copy is the only one a call can make.
    n = 256
    a64 = _sym(n)
    a32 = a64.astype(np.float32)
    run = lambda a: sbr_wy(a, 16, 64, engine=make_engine("fp32"), want_q=False)
    floor = _peak(lambda: run(Validated(a32)))
    for a in (Validated(a64), a64):
        assert _peak(lambda: run(a)) - floor < a32.nbytes / 4
