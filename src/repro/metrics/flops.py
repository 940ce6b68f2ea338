"""Analytic operation counts of the SBR algorithms (paper Table 2).

The counts are computed by *exact summation over the algorithm's loop
structure*: the GEMM stream comes from the symbolic trace executors
(:mod:`repro.gemm.symbolic`) — guaranteed by tests to match what the
numeric drivers actually issue — and the panel (BLAS2) work is added from
standard Householder-QR operation-count formulas.

Paper reference points (n = 32768): ZY at b = 128 counts 0.70e14
operations; WY grows from 0.93e14 (nb = 128) to 1.31e14 (nb = 4096) —
the "more flops, better shapes" trade-off of §4.3.1.
"""

from __future__ import annotations

from ..gemm.symbolic import (
    bulge_sweep_geometry,
    trace_bulge_wavefront,
    trace_form_q,
    trace_sbr_wy,
    trace_sbr_zy,
)
from ..validation import check_blocksizes

__all__ = [
    "gemm_flops",
    "panel_qr_flops",
    "panel_wy_build_flops",
    "sbr_zy_flops",
    "sbr_wy_flops",
    "formw_flops",
    "bulge_wavefront_flops",
]


def gemm_flops(m: int, n: int, k: int) -> int:
    """Flop count of one GEMM ``C(m×n) += A(m×k) B(k×n)``."""
    return 2 * m * n * k


def panel_qr_flops(m: int, w: int) -> int:
    """Householder QR flops of an m×w panel: ``2 w^2 (m - w/3)``.

    The classic LAPACK ``geqrf`` operation count; TSQR performs the same
    leading-order work re-distributed over the tree.
    """
    return int(2 * w * w * (m - w / 3))


def panel_wy_build_flops(m: int, w: int) -> int:
    """Flops to build the panel's W (or T) factor: ~``2 m w^2``.

    Building column ``j`` of W costs two (m×j)-by-vector products; summed
    over j this is ``2 m w^2`` to leading order (same for the
    LU-reconstruction path: the reconstruction's triangular solves and the
    ``W = Y T`` product are also Θ(m w^2)).
    """
    return 2 * m * w * w


def sbr_zy_flops(n: int, b: int, *, want_q: bool = False, include_panel: bool = True) -> int:
    """Total arithmetic operations of the ZY-based SBR.

    Parameters
    ----------
    n, b : int
        Matrix size and bandwidth.
    want_q : bool
        Include the cost of accumulating Q (Table 2 reports the reduction
        alone, so the default is False).
    include_panel : bool
        Include panel QR + WY-build (BLAS2) work.
    """
    check_blocksizes(n, b)
    total = trace_sbr_zy(n, b, want_q=want_q).total_flops
    if include_panel:
        i = 0
        while n - i - b >= 2:
            m = n - i - b
            w = min(b, m)
            total += panel_qr_flops(m, w) + panel_wy_build_flops(m, w)
            i += b
    return total


def sbr_wy_flops(
    n: int,
    b: int,
    nb: int,
    *,
    want_q: bool = False,
    include_panel: bool = True,
    mirror: bool = False,
) -> int:
    """Total arithmetic operations of the WY-based SBR (Algorithm 1).

    ``mirror=False`` (default) uses the paper's full-update accounting
    (Table 2); ``mirror=True`` counts the implementation's symmetry-aware
    block-boundary schedule instead.
    """
    check_blocksizes(n, b, nb)
    total = trace_sbr_wy(n, b, nb, want_q=want_q, mirror=mirror).total_flops
    if include_panel:
        j0 = 0
        while n - j0 - b >= 2:
            advance = False
            for r in range(0, nb, b):
                i = j0 + r
                m = n - i - b
                if m < 2:
                    break
                w = min(b, m)
                total += panel_qr_flops(m, w) + panel_wy_build_flops(m, w)
                if m <= b + 1:
                    break
                if r + b >= nb:
                    advance = True
                    break
            if not advance:
                break
            j0 += nb
    return total


def formw_flops(n: int, blocks: "list[tuple[int, int]]", *, method: str = "tree") -> int:
    """Flops of assembling Q from per-block WY factors (Algorithm 2)."""
    return trace_form_q(n, blocks, method=method).total_flops


def bulge_wavefront_flops(n: int, b: int, *, want_q: bool = True) -> int:
    """*Modeled* stage-2 operations of a blocked wavefront bulge chase.

    A model, not a count of what runs: the library's stage 2 is LAPACK
    ``?sbtrd`` (:func:`repro.eig.bulge_chase`).  This prices the MAGMA
    ``sb2st``-style compact-WY chase the paper's figures and the live
    progress plan assume: the launch schedule of
    :func:`repro.gemm.symbolic.trace_bulge_wavefront` plus the per-hop
    QR/WY factor work from the standard panel formulas, summed over the
    same hop geometry.
    """
    total = trace_bulge_wavefront(n, b, want_q=want_q).total_flops
    for j in range(max(n - 2, 0)):
        for kind, a0, a1, b0, b1, hi in bulge_sweep_geometry(n, b, j):
            L = b1 - b0
            kk = min(L, a1 - a0) if kind == "qr" else 1
            total += panel_qr_flops(L, kk) + panel_wy_build_flops(L, kk)
    return total

