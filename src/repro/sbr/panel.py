"""The stage-1 panel factorization shared by both band reductions.

A *panel* is the tall-and-skinny block ``A[i+b:n, i:i+w]`` (Figure 2 of
the paper).  :func:`factor_panel` QR-factors it the paper's way (§5.1–5.2)
with TSQR, and hands the band reduction a WY pair ``(W, Y)``:

- A panel that TSQR's leaf rule (:func:`~repro.la.tsqr.leaf_bounds`)
  splits into a tree has only an explicit Q, whose Householder vectors
  are reconstructed by non-pivoted LU (Algorithm 3).
- A panel that fits in one leaf is one Householder QR, and a tree-less
  TSQR keeps its leaf's compact WY form: ``?geqrt`` returns ``Y`` and
  ``T`` directly (:func:`~repro.la.tsqr.leaf_wy`), so there is nothing
  to reconstruct.

Either way ``W = Y T`` is one engine GEMM, and the result is written into
the band exactly as :func:`~repro.sbr.wy.sbr_wy` and
:func:`~repro.sbr.zy.sbr_zy` need it, so both reductions run one panel.

GEMM tags: ``panel_tsqr`` (tree panels only), ``panel_reconstruct`` (the
``W`` GEMM), and ``sbr_strip`` for a tail panel narrower than the
bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SingularMatrixError
from ..gemm.engine import GemmEngine
from ..obs import spans as obs
from ..la.reconstruct import reconstruct_wy
from ..la.tsqr import leaf_bounds, leaf_wy, tsqr

__all__ = ["PanelFactorization", "factor_panel"]


@dataclass
class PanelFactorization:
    """WY-form QR of one panel: ``P = (I - W Y^T)[:, :k] @ R``.

    ``w``/``y`` are (m, k) with ``y`` unit lower trapezoidal; ``r`` is the
    k×k upper-triangular factor.
    """

    w: np.ndarray
    y: np.ndarray
    r: np.ndarray


def factor_panel(
    A: np.ndarray,
    i: int,
    b: int,
    width: int,
    *,
    engine: GemmEngine,
    resilience=None,
    panel_index: int | None = None,
) -> PanelFactorization:
    """Factor the panel ``A[i+b:, i:i+width]`` and write it into the band.

    On return ``A`` holds ``R`` in place of the panel, zeros below it, and
    the symmetric mirror of both.  A tail panel (``width < b``) also
    applies its left transform to the in-band columns ``[i+width, i+b)``,
    which no later panel reaches.

    Parameters
    ----------
    A : ndarray, (n, n)
        The symmetric working matrix, updated in place.
    i : int
        First panel column.
    b : int
        Bandwidth: the panel starts ``b`` rows below the diagonal.
    width : int
        Panel columns, at most ``b``.  A panel with fewer rows than
        columns raises :class:`~repro.errors.ShapeError` (from TSQR's
        leaf rule).
    engine : GemmEngine
        Engine for the TSQR, ``W`` and strip GEMMs.
    resilience : ResilienceContext, optional
        Runs its panel-orthogonality check on the factored (W, Y).
    panel_index : int, optional
        Tagged, with the phase ``"sbr.panel"``, onto a
        :class:`~repro.errors.SingularMatrixError` raised by the
        reconstruction.

    Returns
    -------
    PanelFactorization
        ``w``, ``y`` and ``r`` in ``A``'s dtype.
    """
    dtype = A.dtype
    panel = A[i + b :, i : i + width]
    with obs.span("sbr.panel", rows=panel.shape[0], cols=width):
        if len(leaf_bounds(*panel.shape)) == 1:
            # One leaf: its compact WY is the panel's; nothing to rebuild.
            with obs.span("panel.geqrt"):
                y, t, r = leaf_wy(panel)
                w = engine.gemm(y, t, tag="panel_reconstruct")
        else:
            try:
                with obs.span("panel.tsqr"):
                    q, r = tsqr(panel, engine=engine, tag="panel_tsqr")
                with obs.span("panel.reconstruct"):
                    w, y, s = reconstruct_wy(q, engine=engine, tag="panel_reconstruct")
            except SingularMatrixError as exc:
                if exc.panel is None:
                    exc.panel = panel_index
                if exc.phase is None:
                    exc.phase = "sbr.panel"
                raise
            # A = Q R = (Q S)(S R): absorb the sign flips into R's rows.
            r = r * s[:, np.newaxis]
    pf = PanelFactorization(
        w=w.astype(dtype, copy=False),
        y=y.astype(dtype, copy=False),
        r=r.astype(dtype, copy=False),
    )
    if resilience is not None:
        resilience.check_panel(pf.w, pf.y, precision=engine.precision)

    panel[:width] = pf.r
    panel[width:] = 0
    A[i : i + width, i + b :] = panel.T

    if width < b:
        # Tail panel: columns [i+width, i+b) keep in-band entries on the
        # panel's row range; they see only this panel's transform from
        # the left (no later panel follows).
        strip = A[i + b :, i + width : i + b]
        wts = engine.gemm(pf.w.T, strip, tag="sbr_strip")
        strip -= engine.gemm(pf.y, wts, tag="sbr_strip")
        A[i + width : i + b, i + b :] = strip.T
    return pf
