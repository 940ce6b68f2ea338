"""Result containers shared by the SBR drivers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["WYBlock", "SbrResult", "apply_wy_blocks", "pack_wy_blocks",
           "unpack_wy_blocks"]


@dataclass
class WYBlock:
    """One accumulated WY factor ``I - W Y^T`` acting on rows ``offset..n``.

    The orthogonal transform of a whole reduction is the ordered product of
    its blocks, each embedded into the identity at ``offset``:

        Q = prod_j  embed(I - W_j Y_j^T, offset_j)

    For the WY-based SBR there is one block per big block (``k`` up to
    ``nb`` columns); for the ZY-based SBR one per panel (``k = b``).
    """

    offset: int
    w: np.ndarray
    y: np.ndarray

    @property
    def ncols(self) -> int:
        """Number of accumulated reflectors in this block."""
        return self.w.shape[1]

    @property
    def nrows(self) -> int:
        """Active row count (below ``offset``)."""
        return self.w.shape[0]


@dataclass
class SbrResult:
    """Output of a band-reduction driver.

    Attributes
    ----------
    band : numpy.ndarray
        Dense n×n symmetric band matrix ``B`` with ``A ≈ Q B Q^T``.
    bandwidth : int
        The target bandwidth ``b``.
    q : numpy.ndarray or None
        Accumulated orthogonal transform (``None`` when not requested,
        as on the eigensolvers' vectors path, which applies ``blocks``).
    blocks : list of WYBlock
        The per-block WY factors: :func:`apply_wy_blocks` applies ``Q``
        from them, :func:`repro.sbr.formw.form_q_from_blocks` forms it.
    workspace : repro.perf.Workspace or None
        The scratch arena the reduction ran with (when the driver is
        arena-aware); its ``stats()`` feed the run manifest's ``alloc``
        line.
    """

    band: np.ndarray
    bandwidth: int
    q: np.ndarray | None = None
    blocks: list[WYBlock] = field(default_factory=list)
    workspace: "object | None" = None

    @property
    def n(self) -> int:
        """Matrix size."""
        return self.band.shape[0]


def apply_wy_blocks(blocks: "list[WYBlock]", x: np.ndarray, *,
                    transpose: bool = False, gemm=np.matmul) -> np.ndarray:
    """Overwrite ``x`` with ``Q x`` (``Q^T x`` with ``transpose``).

    ``Q`` is the product of ``blocks`` in application order, as in
    :class:`WYBlock`, so ``Q x`` applies the last block first, each as
    ``x[o:] -= W (Y^T x[o:])``; ``Q^T x`` applies the first block first,
    as ``x[o:] -= Y (W^T x[o:])``.  The products run in ``x``'s dtype
    through ``gemm(a, b)``.  Returns ``x``.
    """
    for blk in (blocks if transpose else reversed(blocks)):
        w = blk.w.astype(x.dtype, copy=False)
        y = blk.y.astype(x.dtype, copy=False)
        if transpose:
            w, y = y, w
        xo = x[blk.offset:]
        xo -= gemm(w, gemm(y.T, xo))
    return x


def pack_wy_blocks(blocks: "list[WYBlock]") -> tuple[dict, list[int]]:
    """Flatten a WY block list for checkpointing.

    Returns an array dict (``block<i>_w`` / ``block<i>_y`` entries, ready
    for an ``npz`` payload) and the parallel offset list (JSON scalars).
    :func:`unpack_wy_blocks` inverts it.
    """
    arrays: dict = {}
    offsets: list[int] = []
    for idx, blk in enumerate(blocks):
        arrays[f"block{idx}_w"] = blk.w
        arrays[f"block{idx}_y"] = blk.y
        offsets.append(int(blk.offset))
    return arrays, offsets


def unpack_wy_blocks(arrays: dict, offsets: "list[int]") -> "list[WYBlock]":
    """Rebuild a WY block list from checkpointed arrays + offsets."""
    return [
        WYBlock(offset=int(off), w=arrays[f"block{idx}_w"], y=arrays[f"block{idx}_y"])
        for idx, off in enumerate(offsets)
    ]
