"""Banded SVD: band→bidiagonal bulge chasing + Golub–Kahan solve.

A true two-stage SVD path for banded matrices — the workload the
memory-aware bulge-chasing paper (arXiv 2510.12705) targets — a blocked
compact-WY bulge chase on the engine:

1. :func:`band_to_bidiagonal` — the band analogue of the symmetric bulge
   chase: per sweep, a right reflector annihilates row ``j`` beyond the
   superdiagonal, then alternating left-QR / right-LQ hops chase the
   resulting fill block down the band.  Hop factors are WY-accumulated
   (:func:`repro.la.wy.build_wy`) and every block application — strip,
   tile, and the U/V accumulations — launches through
   :class:`repro.gemm.engine.GemmEngine` under ``bulge.svd.*`` tags with
   scratch from the :class:`repro.perf.Workspace` arena, so the stage
   joins the telemetry stream and the resilience/ABFT guards exactly
   like the EVD stage 1.
2. The bidiagonal ``(d, e)`` is solved by the shared Golub–Kahan back
   end (:func:`repro.svd.direct.gk_bidiagonal_svd`).

:func:`svd_banded` wraps the two stages for a general square banded
matrix: a matrix with lower bandwidth ``bl > 0`` first gets a banded
Householder QR pre-pass (O(n · bl · (bl + bu)) — cheap for small bands),
whose ``R`` is upper-banded with bandwidth ``bl + bu``.

Unlike :func:`repro.svd.via_evd.svd_via_evd` (dense O(n^3) embedding)
and :func:`repro.svd.direct.svd_direct` (dense bidiagonalization), the
two-stage path does O(n^2 bw) work — the same structural win the
symmetric two-stage EVD has, and the cross-validation target the tests
pin against both dense routes.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, ValidationError
from ..gemm.engine import GemmEngine, PlainEngine
from ..la.householder import apply_reflector_left, make_reflector
from ..la.wy import build_wy
from ..obs import spans as obs
from ..perf import resolve_workspace
from .direct import gk_bidiagonal_svd

__all__ = ["band_to_bidiagonal", "svd_banded"]

#: Semantic tags of the engine-routed launches (see
#: :data:`repro.gemm.symbolic.BULGE_SVD_TAGS`).
TAG_STRIP = "bulge.svd.strip"
TAG_TILE = "bulge.svd.tile"
TAG_U = "bulge.svd.u"
TAG_V = "bulge.svd.v"


def band_to_bidiagonal(
    a,
    bw: int,
    *,
    want_uv: bool = True,
    engine: GemmEngine | None = None,
    workspace=None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray | None]:
    """Reduce an upper-banded square matrix to upper bidiagonal form.

    ``a`` must satisfy ``a[i, j] == 0`` outside ``0 <= j - i <= bw``.
    Returns ``(u, d, e, v)`` with ``a = u @ bidiag(d, e) @ v.T`` (``u``
    and ``v`` are ``None`` when ``want_uv=False``).

    Parameters
    ----------
    engine : GemmEngine, optional
        Engine for the strip/tile/U/V block updates (default: a
        dtype-neutral :class:`~repro.gemm.engine.PlainEngine`); the
        chase runs in float64.
    workspace : repro.perf.Workspace, bool, or None
        Scratch arena for the update temporaries.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ShapeError(
            f"band_to_bidiagonal requires a non-empty square matrix, got {a.shape}"
        )
    if bw < 1:
        raise ShapeError(f"bandwidth must be >= 1, got {bw}")
    if np.any(np.tril(a, -1)):
        raise ShapeError(
            "band_to_bidiagonal requires an upper-banded matrix "
            "(nonzero entries below the diagonal found); "
            "use svd_banded for general banded input"
        )
    n = a.shape[0]
    B = a.copy()
    u = np.eye(n) if want_uv else None
    v = np.eye(n) if want_uv else None
    if bw == 1 or n <= 2:
        return u, np.diagonal(B).copy(), np.diagonal(B, 1).copy(), v

    eng = engine if engine is not None else PlainEngine()
    ws = resolve_workspace(workspace)
    nsweeps = nhops = 0

    with obs.span("bulge.svd", n=n, bandwidth=bw) as sp:
        for j in range(n - 2):
            r0, e0 = j + 1, min(j + 1 + bw, n)
            if e0 - r0 < 2 or not np.any(B[j, r0 + 1 : e0]):
                continue
            nsweeps += 1
            # Sweep opener: right reflector annihilating row j beyond the
            # superdiagonal.  Support is rows [r0, e0): rows above j are
            # already bidiagonal, rows at/below e0 have no entries in the
            # touched columns.
            v_ref, beta, alpha = make_reflector(B[j, r0:e0])
            B[j, r0] = alpha
            B[j, r0 + 1 : e0] = 0.0
            y1 = v_ref[:, None]
            w1 = (beta * v_ref)[:, None]
            _apply_right(eng, ws, B[r0:e0, r0:e0], w1, y1, TAG_TILE)
            if v is not None:
                _apply_right(eng, ws, v[:, r0:e0], w1, y1, TAG_V)

            # Chase: left-QR the dense fill block (restoring upper
            # triangularity), right-LQ the strip it smears out of band,
            # leapfrog down the band until the fill dies or hits the edge.
            a0, a1 = r0, e0
            while True:
                nhops += 1
                y_l, betas_l = _house_qr(B[a0:a1, a0:a1])
                c1 = min(a1 + bw, n)
                if np.any(betas_l):
                    w_l, y_l = build_wy(y_l, betas_l)
                    if c1 > a1:
                        _apply_left(eng, ws, B[a0:a1, a1:c1], w_l, y_l, TAG_STRIP)
                    if u is not None:
                        _apply_right(eng, ws, u[:, a0:a1], w_l, y_l, TAG_U)
                elif a0 > r0:
                    break  # dead chase: the previous hop's fill vanished
                if c1 - a1 < 2:
                    break
                # Right LQ of the strip: QR of S^T makes S lower-triangular
                # relative to its local diagonal — exactly the band edge.
                m_t = ws.take("svdb_st", (c1 - a1, a1 - a0), np.float64)
                np.copyto(m_t, B[a0:a1, a1:c1].T)
                y_r, betas_r = _house_qr(m_t)
                B[a0:a1, a1:c1] = m_t.T
                if np.any(betas_r):
                    w_r, y_r = build_wy(y_r, betas_r)
                    _apply_right(eng, ws, B[a1:c1, a1:c1], w_r, y_r, TAG_TILE)
                    if v is not None:
                        _apply_right(eng, ws, v[:, a1:c1], w_r, y_r, TAG_V)
                a0, a1 = a1, c1
        sp.count("sweeps", nsweeps)
        sp.count("hops", nhops)

    d = np.diagonal(B).copy()
    e = np.diagonal(B, 1).copy()
    return u, d, e, v


def svd_banded(
    a,
    bw: "int | None" = None,
    *,
    engine: GemmEngine | None = None,
    workspace=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-stage SVD of a square banded matrix ``A = U diag(s) V^T``.

    Stage 1 is :func:`band_to_bidiagonal` (band→bidiagonal bulge
    chasing, O(n^2 bw)); stage 2 the shared Golub–Kahan divide & conquer
    back end.  A matrix with content below the diagonal first gets a
    banded Householder QR pre-pass.  ``bw``, when given, is validated
    against the matrix's actual bandwidth; when omitted it is detected.
    Returns ``(u, s, vt)`` with singular values descending.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ShapeError(
            f"svd_banded requires a non-empty square matrix, got {a.shape}"
        )
    n = a.shape[0]
    bl, bu = _lower_upper_bandwidth(a)
    if bw is not None:
        if not isinstance(bw, (int, np.integer)) or bw < 1:
            raise ValidationError(
                f"bw must be a positive integer, got {bw!r}", field="bw"
            )
        if max(bl, bu) > bw:
            raise ValidationError(
                f"matrix has bandwidth ({bl}, {bu}), larger than the "
                f"declared bw={bw}",
                field="bw",
            )

    with obs.span("svd_banded", n=n, bl=bl, bu=bu):
        if bl > 0:
            q0, r = _banded_qr(a, bl, bu)
            bw_eff = max(min(bl + bu, n - 1), 1)
        else:
            q0, r = None, a
            bw_eff = max(min(bu, n - 1), 1)
        u_b, d, e, v_b = band_to_bidiagonal(
            r, bw_eff, engine=engine, workspace=workspace
        )
        u_small, s, v_small = gk_bidiagonal_svd(d, e)
        u = u_b @ u_small if q0 is None else q0 @ (u_b @ u_small)
        vt = (v_b @ v_small).T
    return u, s, vt


def _lower_upper_bandwidth(a) -> tuple[int, int]:
    """(lower, upper) bandwidth of a dense square matrix."""
    rows, cols = np.nonzero(a)
    if rows.size == 0:
        return 0, 0
    diag = cols - rows
    return int(max(0, -int(diag.min()))), int(max(0, int(diag.max())))


def _banded_qr(a, bl: int, bu: int) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR of a banded matrix, exploiting the band structure.

    Column ``j`` has nonzeros only in rows ``[j, j + bl]``, so each
    reflector has length ``bl + 1`` and touches columns up to
    ``j + bl + bu``; ``R`` comes out upper-banded with bandwidth
    ``bl + bu``.  O(n · bl · (bl + bu)) panel-style work.
    """
    n = a.shape[0]
    r = a.copy()
    q = np.eye(n)
    for j in range(n - 1):
        lo, hi = j, min(j + bl + 1, n)
        if hi - lo < 2 or not np.any(r[lo + 1 : hi, j]):
            continue
        v_ref, beta, alpha = make_reflector(r[lo:hi, j])
        r[lo, j] = alpha
        r[lo + 1 : hi, j] = 0.0
        if beta != 0.0:
            c1 = min(j + bl + bu + 1, n)
            if c1 > j + 1:
                apply_reflector_left(r[lo:hi, j + 1 : c1], v_ref, beta)
            # q <- q H (H symmetric): q[:, lo:hi] -= beta (q v) v^T
            qb = q[:, lo:hi]
            qb -= np.multiply.outer(qb @ (beta * v_ref), v_ref)
    return q, r


def _house_qr(block) -> tuple[np.ndarray, np.ndarray]:
    """In-place Householder QR of one hop block; returns ``(Y, betas)``.

    ``block`` (m × w) becomes R; reflector columns land in ``Y`` with
    unit diagonal.  All-zero ``betas`` means there was nothing below the
    diagonal (dead chase).  Panel-style scalar work, like the stage-1
    panel factorizations.
    """
    m, w = block.shape
    kk = min(max(m - 1, 0), w)
    y = np.zeros((m, max(kk, 1)))
    y[0, 0] = 1.0
    betas = np.zeros(max(kk, 1))
    for jl in range(kk):
        v_ref, beta, alpha = make_reflector(block[jl:, jl])
        block[jl, jl] = alpha
        block[jl + 1 :, jl] = 0.0
        y[jl:, jl] = v_ref
        betas[jl] = beta
        if beta != 0.0 and jl + 1 < w:
            apply_reflector_left(block[jl:, jl + 1 :], v_ref, beta)
    return y, betas


def _apply_left(eng, ws, s, w_f, y_f, tag) -> None:
    """``S <- (I - W Y^T)^T S = S - Y (W^T S)``, engine-routed."""
    t = eng.gemm(
        w_f, s, ta=True, tag=tag,
        out=ws.take("svdb_t", (w_f.shape[1], s.shape[1]), np.float64),
    )
    upd = eng.gemm(y_f, t, tag=tag, out=ws.take("svdb_u", s.shape, np.float64))
    np.subtract(s, upd, out=s)


def _apply_right(eng, ws, d, w_f, y_f, tag) -> None:
    """``D <- D (I - W Y^T) = D - (D W) Y^T``, engine-routed."""
    p = eng.gemm(
        d, w_f, tag=tag,
        out=ws.take("svdb_p", (d.shape[0], w_f.shape[1]), np.float64),
    )
    upd = eng.gemm(p, y_f, tb=True, tag=tag, out=ws.take("svdb_r", d.shape, np.float64))
    np.subtract(d, upd, out=d)
