"""Symbolic (shape-only) GEMM trace executors.

These functions replay the *control flow* of the band-reduction algorithms
without touching data, emitting the exact GEMM shape stream the numeric
drivers would issue.  This makes paper-scale shape streams (n = 32768)
available in microseconds, which is how the performance figures (5–11) are
regenerated without an A100.

Fidelity contract (enforced by tests): for any (n, b, nb), the symbolic
trace equals the numeric engine's recorded trace filtered to
*algorithm-level* tags — the trailing updates, W/Q formation — i.e.
everything except panel-internal GEMMs (tags ``panel_*``/``qr_*``/
``tsqr``), whose cost the device model charges through its panel
estimators instead.

Tag vocabulary matches :mod:`repro.sbr.zy` / :mod:`repro.sbr.wy` /
:mod:`repro.sbr.formw`.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..validation import check_blocksizes
from .trace import GemmRecord, GemmTrace

__all__ = [
    "ALGORITHM_TAGS",
    "BULGE_WAVEFRONT_TAGS",
    "WAVEFRONT_DELTA",
    "full_update_col_blocks",
    "trace_sbr_zy",
    "trace_sbr_wy",
    "trace_form_q",
    "is_algorithm_tag",
    "bulge_sweep_geometry",
    "wavefront_rounds",
    "wavefront_groups",
    "trace_bulge_wavefront",
]

#: Tags that belong to the algorithm-level GEMM stream (vs panel internals).
ALGORITHM_TAGS = frozenset(
    {
        "zy_aw",
        "zy_wtaw",
        "zy_z",
        "zy_zyt",
        "zy_yzt",
        "zy_syr2k",
        "form_w",
        "wy_oaw",
        "wy_right",
        "wy_left",
        "wy_full_right",
        "wy_full_left",
        "sbr_strip",
        "formw",
        "form_q",
    }
)


#: Tags of the *modeled* stage-2 wavefront bulge chase's tile updates
#: (:func:`trace_bulge_wavefront`).  The modeled chase's panel-internal
#: work — the bulge-block QR and the WY build — stays outside the engine,
#: exactly like stage 1's ``panel_*`` work, so these four tags are its
#: complete algorithm-level stream.
BULGE_WAVEFRONT_TAGS = frozenset(
    {
        "bulge.wavefront.left",
        "bulge.wavefront.tile",
        "bulge.wavefront.update",
        "bulge.wavefront.syr2k",
    }
)

def is_algorithm_tag(tag: str) -> bool:
    """Whether ``tag`` belongs to the algorithm-level GEMM stream."""
    return tag in ALGORITHM_TAGS or tag in BULGE_WAVEFRONT_TAGS


def full_update_col_blocks(t: int, b: int, nb: int) -> "list[tuple[int, int]]":
    """Column blocking of the mirrored block-boundary trailing update.

    The ``t``-column full update computes only the lower trapezoid of each
    column block and mirrors it, so the third ``wy_full_left`` GEMM becomes
    one GEMM per block of shape ``(t - c0) x (c1 - c0) x k``.  The first
    block is ``b`` wide (exactly the columns the *next* big block's first
    panel reads); subsequent blocks are ``nb`` wide to keep the GEMMs
    near-square.

    Shared between the numeric driver (:mod:`repro.sbr.wy`) and the
    symbolic trace so the fidelity contract holds by construction.
    """
    if t <= 0:
        return []
    blocks = [(0, min(b, t))]
    while blocks[-1][1] < t:
        c0 = blocks[-1][1]
        blocks.append((c0, min(c0 + nb, t)))
    return blocks


def trace_sbr_zy(n: int, b: int, *, want_q: bool = True, use_syr2k: bool = False) -> GemmTrace:
    """Shape stream of :func:`repro.sbr.zy.sbr_zy` (algorithm-level tags)."""
    check_blocksizes(n, b)
    trace = GemmTrace()
    i = 0
    while n - i - b >= 2:
        m = n - i - b
        w = min(b, m)
        if w < b:
            trace.record(w, b - w, m, tag="sbr_strip")
            trace.record(m, b - w, w, tag="sbr_strip")
        trace.record(m, w, m, tag="zy_aw")
        trace.record(w, w, m, tag="zy_wtaw")
        trace.record(m, w, w, tag="zy_z")
        if use_syr2k:
            trace.add(GemmRecord(m, m, w, tag="zy_syr2k", op="syr2k"))
        else:
            trace.record(m, m, w, tag="zy_zyt")
            trace.record(m, m, w, tag="zy_yzt")
        if want_q:
            trace.record(n, w, m, tag="form_q")
            trace.record(n, m, w, tag="form_q")
        i += b
    return trace


def trace_sbr_wy(
    n: int,
    b: int,
    nb: int,
    *,
    want_q: bool = True,
    q_method: str = "tree",
    mirror: bool = False,
) -> GemmTrace:
    """Shape stream of :func:`repro.sbr.wy.sbr_wy` (algorithm-level tags).

    With ``mirror=False`` (default) the block-boundary two-sided update is
    counted as the paper's Algorithm 1 writes it — a full ``mf x mf``
    third GEMM — which is the accounting behind Table 2 and the
    performance-model figures.  ``mirror=True`` models the implementation's
    symmetry-aware schedule instead (lower-trapezoid column blocks from
    :func:`full_update_col_blocks` plus a mirror write, ~35% fewer flops);
    the numeric-fidelity tests compare the driver's GEMM stream against
    this variant.
    """
    check_blocksizes(n, b, nb)
    trace = GemmTrace()
    block_ncols: list[tuple[int, int]] = []  # (offset, accumulated columns)

    j0 = 0
    while n - j0 - b >= 2:
        M = n - j0 - b
        k = 0
        advance = False
        for r in range(0, nb, b):
            i = j0 + r
            m = n - i - b
            if m < 2:
                break
            w = min(b, m)
            if w < b:
                trace.record(w, b - w, m, tag="sbr_strip")
                trace.record(m, b - w, w, tag="sbr_strip")
            if k > 0:
                trace.record(k, w, M, tag="form_w")
                trace.record(M, w, k, tag="form_w")
            trace.record(M, w, M, tag="wy_oaw")
            k += w
            if m <= b + 1:
                _record_partial(trace, M, k, r, cn=m)
                break
            if r + b >= nb:
                mf = M - r
                trace.record(M, mf, k, tag="wy_full_right")
                trace.record(k, mf, M, tag="wy_full_left")
                if mirror:
                    # Implementation schedule: one lower-trapezoid GEMM per
                    # column block, mirrored into the upper triangle.
                    for c0, c1 in full_update_col_blocks(mf, b, nb):
                        trace.record(mf - c0, c1 - c0, k, tag="wy_full_left")
                else:
                    trace.record(mf, mf, k, tag="wy_full_left")
                advance = True
                break
            _record_partial(trace, M, k, r, cn=b)
        if k > 0:
            block_ncols.append((j0 + b, k))
        if not advance:
            break
        j0 += nb

    if want_q and block_ncols:
        trace.extend(trace_form_q(n, block_ncols, method=q_method))
    return trace


def _record_partial(trace: GemmTrace, M: int, k: int, r: int, *, cn: int) -> None:
    trace.record(M, cn, k, tag="wy_right")
    trace.record(k, cn, M, tag="wy_left")
    trace.record(M - r, cn, k, tag="wy_left")


def trace_form_q(
    n: int,
    blocks: "list[tuple[int, int]]",
    *,
    method: str = "tree",
) -> GemmTrace:
    """Shape stream of :func:`repro.sbr.formw.form_q_from_blocks`.

    ``blocks`` is a list of ``(offset, ncols)`` pairs in application order.
    """
    trace = GemmTrace()
    if not blocks:
        return trace
    if method == "forward":
        for offset, k in blocks:
            m = n - offset
            trace.record(n, k, m, tag="form_q")
            trace.record(n, m, k, tag="form_q")
        return trace
    if method != "tree":
        raise ConfigurationError(f"method must be 'tree' or 'forward', got {method!r}")

    base = min(offset for offset, _ in blocks)
    rows = n - base
    ncols = [k for _, k in blocks]

    def merge(lo: int, hi: int) -> int:
        if hi - lo == 1:
            return ncols[lo]
        mid = (lo + hi) // 2
        kl = merge(lo, mid)
        kr = merge(mid, hi)
        trace.record(kl, kr, rows, tag="formw")
        trace.record(rows, kr, kl, tag="formw")
        return kl + kr

    k_all = merge(0, len(blocks))
    trace.record(rows, rows, k_all, tag="form_q")
    return trace


# ---------------------------------------------------------------------------
# Stage-2 wavefront bulge chasing: schedule geometry + symbolic trace.
#
# *Modeled*: the library's stage 2 is LAPACK ``?sbtrd``
# (:func:`repro.eig.bulge.bulge_chase`).  This is the launch stream of a
# MAGMA ``sb2st``-style blocked chase with memory-aware wavefront batching
# (arXiv 2510.12705) on a *generic* band matrix — every sweep's chase runs
# its full geometric length — kept for the paper's figures and the live
# progress plan.
# ---------------------------------------------------------------------------

#: Minimum step separation between adjacent sweeps of the wavefront
#: schedule.  Step ``t`` of sweep ``j`` touches rows/columns
#: ``[j+1+(t-1)b, j+1+(t+2)b)``; steps of sweeps ``d`` apart scheduled
#: ``DELTA*d`` steps apart are disjoint iff ``(DELTA*d - 3) * b >= d``,
#: which ``DELTA = 4`` satisfies for every ``b >= 1`` — so all steps of
#: one round commute and any batching order is bitwise-identical to the
#: serial schedule.
WAVEFRONT_DELTA = 4


def bulge_sweep_geometry(n: int, b: int, j: int) -> "list[tuple]":
    """Step geometries of sweep ``j`` of the blocked/wavefront bulge chase.

    Each step is ``(kind, a0, a1, b0, b1, hi)``: ``kind == "col"`` is the
    sweep's opening reflector (annihilating column ``j`` below the
    subdiagonal; its "QR block" is the single column segment), ``"qr"``
    is one chase hop (QR of the bulge block ``A[b0:b1, a0:a1]``).  In
    both kinds ``[b0, b1)`` is the row range the step's orthogonal
    transform acts on and ``hi`` bounds the band/bulge content of those
    rows, so the step's two-sided update covers the diagonal tile
    ``[b0, b1)²`` plus the strip columns ``[b1, hi)``.
    """
    steps: "list[tuple]" = []
    r0, e0 = j + 1, min(j + 1 + b, n)
    if e0 - r0 < 2:
        return steps
    steps.append(("col", j, j + 1, r0, e0, min(e0 + b, n)))
    a0, a1 = r0, e0
    while True:
        b0 = a0 + b
        b1 = min(a1 + b, n)
        if b1 - b0 < 2:
            break
        steps.append(("qr", a0, a1, b0, b1, min(b1 + b, n)))
        a0, a1 = b0, b1
    return steps


def wavefront_rounds(n: int, b: int):
    """Yield the rounds of the wavefront schedule.

    Round ``r`` executes step ``r - WAVEFRONT_DELTA * j`` of every sweep
    ``j`` for which that index is in range — the anti-diagonal wavefront:
    all steps of one round have pairwise-disjoint row/column footprints
    (see :data:`WAVEFRONT_DELTA`), so a blocked chase may batch them into
    single ``gemm_batched`` launches.  Each yielded round is a
    non-empty list of ``(j, geometry)`` pairs in ascending ``j``.
    """
    nsweeps = max(n - 2, 0)
    geoms = [bulge_sweep_geometry(n, b, j) for j in range(nsweeps)]
    while geoms and not geoms[-1]:
        geoms.pop()
    nsweeps = len(geoms)
    lo = 0
    r = 0
    # Sweeps finish in ascending-j order (sweep j+1 has at most one step
    # fewer than sweep j, so finish rounds are strictly increasing) —
    # the active window is [lo, r // DELTA].
    while lo < nsweeps:
        while lo < nsweeps and r - WAVEFRONT_DELTA * lo >= len(geoms[lo]):
            lo += 1
        hi = min(r // WAVEFRONT_DELTA, nsweeps - 1)
        if lo <= hi:
            yield [(j, geoms[j][r - WAVEFRONT_DELTA * j]) for j in range(lo, hi + 1)]
        r += 1


def wavefront_groups(wave: "list[tuple]") -> "list[tuple[tuple, list]]":
    """Partition one round's steps into identically-shaped batch groups.

    The group key is ``(kind, L, w, c2)`` — transform row count, QR block
    width, strip width.  Steps sharing a key issue identically-shaped
    tile updates and are launched as one ``gemm_batched`` stack; the
    sorted key order fixes the launch schedule the symbolic trace pins.
    """
    groups: "dict[tuple, list]" = {}
    for j, geom in wave:
        kind, a0, a1, b0, b1, hi = geom
        key = (kind, b1 - b0, (a1 - a0) if kind == "qr" else 1, hi - b1)
        groups.setdefault(key, []).append((j, geom))
    return sorted(groups.items())


def trace_bulge_wavefront(n: int, b: int, *, want_q: bool = True) -> GemmTrace:
    """*Modeled* shape stream of a blocked wavefront bulge chase.

    Nothing numeric launches this stream (stage 2 is LAPACK ``?sbtrd``);
    it is the launch schedule of a MAGMA ``sb2st``-style chase on a
    generic band matrix (no dead sweeps): per batch group, three
    ``gemm_batched`` launches over the group's row blocks ``[tile |
    strip | Q^T rows]`` (the left product ``W^T C``, the tile's
    ``W^T D W``, and the update ``Y [..]``) plus one fused ``syr2k`` per
    step.  The Q^T rows (``n`` columns) ride along only when ``want_q``.
    """
    trace = GemmTrace()
    if n <= 2 or b < 1:
        return trace
    for wave in wavefront_rounds(n, b):
        for (kind, L, w, c2), steps in wavefront_groups(wave):
            g = len(steps)
            kk = min(L, w)
            m = L + c2 + (n if want_q else 0)
            trace.add(GemmRecord(kk, m, L, tag="bulge.wavefront.left",
                                 op="gemm_batched", batch=g))
            trace.add(GemmRecord(kk, kk, L, tag="bulge.wavefront.tile",
                                 op="gemm_batched", batch=g))
            trace.add(GemmRecord(L, m - L + kk, kk, tag="bulge.wavefront.update",
                                 op="gemm_batched", batch=g))
            for _ in steps:
                trace.add(GemmRecord(L, L, kk, tag="bulge.wavefront.syr2k",
                                     op="syr2k"))
    return trace
