"""Panel factorization strategies for band reduction.

A *panel* is the tall-and-skinny block ``A[i+b:n, i:i+b]`` (Figure 2 of the
paper).  Each strategy QR-factors the panel and returns its WY pair, so the
SBR drivers are agnostic to how the panel was factored:

- :class:`TsqrPanel` — the paper's approach (§5.1–5.2): TSQR produces an
  explicit Q; Householder vectors are reconstructed from it by non-pivoted
  LU (Algorithm 3).  Fast on GPUs because the tree exposes square GEMMs.
- :class:`BlockedQrPanel` — cuSOLVER-style ``sgeqrf``-shaped blocked
  Householder QR (the "TSQR off" ablation of Figure 9).
- :class:`UnblockedQrPanel` — LAPACK-style column-at-a-time Householder
  QR (the MAGMA-panel-like reference).

All strategies return the same :class:`PanelFactorization`; numerically they
agree up to signs absorbed into R.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..gemm.engine import GemmEngine, SgemmEngine
from ..obs import spans as obs
from ..la.qr import blocked_qr, householder_qr
from ..la.reconstruct import reconstruct_wy
from ..la.tsqr import tsqr
from ..la.wy import build_wy

__all__ = [
    "PanelFactorization",
    "PanelStrategy",
    "TsqrPanel",
    "BlockedQrPanel",
    "UnblockedQrPanel",
    "make_panel_strategy",
]


@dataclass
class PanelFactorization:
    """WY-form QR of one panel: ``P = (I - W Y^T)[:, :k] @ R``.

    ``w``/``y`` are (m, k) with ``y`` unit lower trapezoidal; ``r`` is the
    k×k upper-triangular factor.
    """

    w: np.ndarray
    y: np.ndarray
    r: np.ndarray

    @property
    def ncols(self) -> int:
        return self.r.shape[0]


class PanelStrategy(ABC):
    """Factory of panel QR factorizations (stateless, reusable)."""

    #: Identifier used in experiment configuration and reports.
    name: str = "abstract"

    @abstractmethod
    def factor(self, panel: np.ndarray, *, engine: GemmEngine | None = None) -> PanelFactorization:
        """QR-factor a tall panel (m >= k columns) into WY form."""

    @staticmethod
    def _validate(panel: np.ndarray) -> np.ndarray:
        panel = np.asarray(panel)
        if panel.ndim != 2 or panel.shape[0] < panel.shape[1]:
            raise ShapeError(
                f"panel must be tall (m >= k), got shape {panel.shape}"
            )
        return panel


class TsqrPanel(PanelStrategy):
    """TSQR + Householder reconstruction (the paper's panel, §5.1–5.2)."""

    name = "tsqr"

    def __init__(self, *, leaf_rows: int | None = None):
        self.leaf_rows = leaf_rows

    def factor(self, panel: np.ndarray, *, engine: GemmEngine | None = None) -> PanelFactorization:
        panel = self._validate(panel)
        eng = engine if engine is not None else SgemmEngine()
        with obs.span("panel.tsqr"):
            q, r = tsqr(panel, leaf_rows=self.leaf_rows, engine=eng, tag="panel_tsqr")
        with obs.span("panel.reconstruct"):
            w, y, s = reconstruct_wy(q, engine=eng, tag="panel_reconstruct")
        # A = Q R = (Q S)(S R): absorb the sign flips into R's rows.
        r = r * s[:, np.newaxis]
        return PanelFactorization(w=w, y=y, r=r)


class BlockedQrPanel(PanelStrategy):
    """Blocked Householder QR (cuSOLVER ``sgeqrf``-like panel)."""

    name = "blocked_qr"

    def __init__(self, *, block: int = 32):
        if block <= 0:
            raise ShapeError(f"block must be positive, got {block}")
        self.block = block

    def factor(self, panel: np.ndarray, *, engine: GemmEngine | None = None) -> PanelFactorization:
        panel = self._validate(panel)
        with obs.span("panel.blocked_qr"):
            v_cols, betas, r = blocked_qr(panel, block=self.block, engine=engine)
            w, y = build_wy(v_cols, betas)
        return PanelFactorization(w=w, y=y, r=r)


class UnblockedQrPanel(PanelStrategy):
    """Column-at-a-time Householder QR (MAGMA-panel-like reference)."""

    name = "unblocked_qr"

    def factor(self, panel: np.ndarray, *, engine: GemmEngine | None = None) -> PanelFactorization:
        panel = self._validate(panel)
        with obs.span("panel.unblocked_qr"):
            v_cols, betas, r = householder_qr(panel)
            w, y = build_wy(v_cols, betas)
        return PanelFactorization(w=w, y=y, r=r)


_STRATEGIES = {
    "tsqr": TsqrPanel,
    "blocked_qr": BlockedQrPanel,
    "unblocked_qr": UnblockedQrPanel,
}


def make_panel_strategy(name: "str | PanelStrategy") -> PanelStrategy:
    """Resolve a panel strategy from its name (or pass one through)."""
    if isinstance(name, PanelStrategy):
        return name
    try:
        return _STRATEGIES[str(name)]()
    except KeyError:
        raise ShapeError(
            f"unknown panel strategy {name!r}; expected one of {sorted(_STRATEGIES)}"
        ) from None
