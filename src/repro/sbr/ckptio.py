"""Checkpoint glue shared by the SBR drivers.

Thin adapters between the SBR loop state and the generic
:class:`repro.ckpt.store.CheckpointManager`: pack the live arrays and
loop indices of one driver into a ``"sbr_panel"`` checkpoint.  Kept out
of the drivers so both :mod:`repro.sbr.wy` and :mod:`repro.sbr.zy`
serialize through one code path (one schema to keep stable).
"""

from __future__ import annotations

from ..ckpt.store import resilience_snapshot
from .types import pack_wy_blocks

__all__ = ["save_wy_panel", "save_zy_panel"]


def save_wy_panel(
    ck, *, A, blocks, ctx, eng,
    j0, r_next, panel_index, norm_baseline,
    OA=None, W=None, Y=None, OAW=None,
):
    """Commit one WY-SBR panel checkpoint.

    Mid-big-block state (``OA``/``W``/``Y``/``OAW``) is included only
    when passed — a block-boundary checkpoint needs just ``A``, the
    completed blocks, and the indices.  ``OA`` *must* be persisted
    mid-block: it is the original trailing matrix captured at block
    entry, already overwritten in ``A`` by the partial updates, so it
    cannot be recomputed on resume.
    """
    arrays, offsets = pack_wy_blocks(blocks)
    arrays["A"] = A
    mid_block = W is not None
    if mid_block:
        arrays["OA"] = OA
        arrays["W"] = W
        arrays["Y"] = Y
        arrays["OAW"] = OAW
    ck.save("sbr_panel", arrays, {
        "algo": "wy",
        "j0": int(j0),
        "r_next": int(r_next),
        "panel_index": int(panel_index),
        "norm_baseline": float(norm_baseline),
        "mid_block": bool(mid_block),
        "block_offsets": offsets,
        "resilience": resilience_snapshot(ctx, eng),
    })


def save_zy_panel(
    ck, *, A, q, blocks, ctx, eng,
    i, panel_index, norm_baseline,
):
    """Commit one ZY-SBR panel checkpoint (A, accumulated Q, blocks)."""
    arrays, offsets = pack_wy_blocks(blocks)
    arrays["A"] = A
    if q is not None:
        arrays["q"] = q
    ck.save("sbr_panel", arrays, {
        "algo": "zy",
        "i": int(i),
        "panel_index": int(panel_index),
        "norm_baseline": float(norm_baseline),
        "block_offsets": offsets,
        "resilience": resilience_snapshot(ctx, eng),
    })

