"""Successive Band Reduction (SBR) — the paper's core contribution.

Reduces a dense symmetric matrix to symmetric band form ``A = Q B Q^T``
(bandwidth ``b``), the first stage of two-stage tridiagonalization:

- :mod:`~repro.sbr.zy` — the conventional ZY-representation algorithm
  (Dongarra et al. 1989), the algorithm inside MAGMA's ``ssytrd_sy2sb``:
  per panel, a rank-2b subtractive trailing update whose GEMMs are tall
  and skinny with inner dimension ``b``.
- :mod:`~repro.sbr.wy` — the paper's **Algorithm 1**: recursive WY-based
  SBR with big-block size ``nb``.  Inside a big block only the next
  panel's columns are updated (against the *original* trailing matrix);
  the full trailing update is deferred to the block boundary, replacing
  many skinny GEMMs with few near-square GEMMs of inner dimension up to
  ``nb``.
- :mod:`~repro.sbr.formw` — the paper's **Algorithm 2**: recursive
  (tree) W construction for the back-transformation.
- :mod:`~repro.sbr.panel` — the panel factorization both reductions run:
  TSQR + Householder reconstruction by non-pivoted LU (paper §5.1–5.2,
  Algorithm 3), or the leaf's own compact WY when TSQR has one leaf.
- :mod:`~repro.sbr.methods` — the two reductions by name (``"wy"``,
  ``"zy"``), the table every driver and tool dispatches through.
"""

from .panel import PanelFactorization, factor_panel
from .types import SbrResult, WYBlock
from .zy import sbr_zy
from .wy import sbr_wy
from .formw import form_wy_tree, form_q_from_blocks

__all__ = [
    "PanelFactorization",
    "factor_panel",
    "SbrResult",
    "WYBlock",
    "sbr_zy",
    "sbr_wy",
    "form_wy_tree",
    "form_q_from_blocks",
]
