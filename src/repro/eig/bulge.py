"""Bulge chasing: symmetric band → tridiagonal (stage 2, paper §3.1).

:func:`bulge_chase` is the library's one stage-2 path: a blocked
Householder chase (MAGMA ``sb2st``-style column sweeps) rebuilt on the
memory-aware tile batching of "Accelerating Bidiagonalization of Banded
Matrices through Memory-Aware Bulge-Chasing on GPUs" (arXiv 2510.12705)
with the wavefront dependency structure of "Look-Ahead in the Two-Sided
Reduction to Compact Band Forms" (arXiv 1709.00302):

- sweep ``j`` opens with one reflector bringing column ``j`` to
  tridiagonal form; the bulge it leaves below the band is chased down
  with one small QR per hop (the hop geometry is
  :func:`repro.gemm.symbolic.bulge_sweep_geometry`);
- each hop's reflectors form one compact-WY pair ``Q = I - W Y^T``
  applied to the hop's row block ``[diagonal tile | strip | Q^T rows]``
  in three GEMMs plus one fused ``syr2k`` for the exactly-symmetric
  two-sided tile update — all through
  :class:`repro.gemm.engine.GemmEngine`;
- steps of *different* sweeps separated by
  :data:`~repro.gemm.symbolic.WAVEFRONT_DELTA` hops have disjoint
  row/column footprints, so one round's anti-diagonal wavefront of tiles
  launches as single ``gemm_batched`` stacks — the schedule
  (:func:`repro.gemm.symbolic.wavefront_rounds`) is shared with the
  symbolic trace, making the launch stream reproducible shape-by-shape
  without running the numerics.

The per-group fixed cost is kept to a handful of NumPy calls:

- every hop's QR is one LAPACK ``geqrf`` call on a Fortran-ordered slice
  of the group's stack (the sweep opener is its one-column case; LAPACK's
  ``dlarfg`` rescales, so any finite input is safe);
- the WY factor comes from the compact-WY identity
  ``T^{-1} = diag(1/tau) + striu(Y^T Y)`` — one stacked GEMM, one
  ``trtri`` per slice and ``W = Y T`` — instead of a column recurrence;
- each scratch tag is taken from the :class:`repro.perf.Workspace` arena
  once per chase, sized to the schedule's largest group, and sliced per
  group (a second chase of the same geometry allocates nothing).

Every per-slice kernel (LAPACK, ``trtri``, batched ``np.matmul``) gives
the same bits whatever the stack height, so ``batch=False`` (one launch
per step) and the default batched execution produce *bitwise identical*
results, pinned by tests.

The diagonal tile update uses the syr2k trick: with ``U = D W``,
``V = W^T D W`` (symmetric) and ``U' = U - (1/2) Y V``,

    Q^T D Q = D - Y U'^T - U' Y^T,

one fused ``syr2k(Y, U', alpha=-1, beta=1, out=D)`` whose output is
exactly symmetric by construction.  ``U^T = W^T D`` comes out of the same
left product ``W^T [D | S | Q^T rows]`` that updates the strip ``S`` and
the Q accumulator, so one hop costs three batched launches whatever
``want_q`` is.

:func:`reduce_bandwidth` keeps the Schwarz (1968) Givens rotation scheme
(the family of LAPACK ``sbtrd``) for band-to-band targets: the bandwidth
is peeled one diagonal at a time, each band-edge entry annihilated by a
rotation whose fill element is chased down the band.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..errors import NumericalBreakdownError, ShapeError
from ..gemm.engine import GemmEngine, PlainEngine
from ..gemm.symbolic import wavefront_groups, wavefront_rounds
from ..obs import spans as obs
from ..perf import resolve_workspace
from ..validation import as_symmetric_matrix

__all__ = ["bulge_chase", "reduce_bandwidth"]

#: Semantic tags of the engine-routed launches (must stay in sync with
#: :data:`repro.gemm.symbolic.BULGE_WAVEFRONT_TAGS`).
TAG_LEFT = "bulge.wavefront.left"
TAG_TILE = "bulge.wavefront.tile"
TAG_UPDATE = "bulge.wavefront.update"
TAG_SYR2K = "bulge.wavefront.syr2k"


def bulge_chase(
    a,
    b: int,
    *,
    want_q: bool = True,
    engine: GemmEngine | None = None,
    workspace=None,
    batch: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Reduce a symmetric band matrix to tridiagonal form.

    Parameters
    ----------
    a : array_like, (n, n) symmetric
        Band matrix with semi-bandwidth ``b`` (entries outside the band
        are assumed zero and ignored).
    b : int
        Semi-bandwidth of ``a``; ``b == 1`` returns the tridiagonal
        entries directly.
    want_q : bool
        Accumulate the orthogonal transform ``Q2`` with ``A ≈ Q2 T Q2^T``.
    engine : GemmEngine, optional
        Engine the tile updates are launched through (default: a
        dtype-neutral :class:`~repro.gemm.engine.PlainEngine`).  Pass a
        recording / resilience-wrapped engine to join the GEMM telemetry
        stream and the ABFT guards.
    workspace : repro.perf.Workspace, bool, or None
        Scratch arena for every gather/WY/update buffer (see
        :func:`repro.perf.resolve_workspace`).
    batch : bool
        Launch each round's identically-shaped wavefront tiles as one
        ``gemm_batched`` stack (default).  ``batch=False`` launches one
        step at a time — bitwise identical output, used by the
        schedule-invariance tests.

    Returns
    -------
    d : ndarray, shape (n,)
        Diagonal of the tridiagonal matrix ``T``.
    e : ndarray, shape (n-1,)
        Sub-diagonal of ``T``.
    q : ndarray (n, n) or None
        The accumulated transform (``None`` if not requested).

    Raises
    ------
    NumericalBreakdownError
        A non-finite band entry (``detector="nonfinite"``).
    """
    a = as_symmetric_matrix(a, rtol=1e-3, atol=1e-4)
    n = a.shape[0]
    if b < 1:
        raise ShapeError(f"bandwidth must be >= 1, got {b}")
    dtype = a.dtype if a.dtype in (np.float32, np.float64) else np.dtype(np.float64)
    A = np.array(a, dtype=dtype, copy=True)
    _check_finite(A)
    # Q is accumulated transposed: a step's columns of Q are contiguous
    # rows of Q^T.
    qt = np.eye(n, dtype=dtype) if want_q else None
    b = min(b, n - 1)
    if b > 1:
        _chase(A, qt, b, engine if engine is not None else PlainEngine(),
               resolve_workspace(workspace), batch)
    d = np.diagonal(A).copy()
    e = np.diagonal(A, offset=-1).copy()
    _check_finite(d, e)
    return d, e, (np.ascontiguousarray(qt.T) if qt is not None else None)


def _check_finite(*arrays) -> None:
    if not all(np.isfinite(x).all() for x in arrays):
        raise NumericalBreakdownError(
            "non-finite entries in the bulge chase",
            detector="nonfinite", site="bulge_chase",
        )


class _Scratch:
    """One arena buffer per tag for a whole chase, sliced per group.

    Every buffer is sized to the schedule's largest group, so the arena
    sees one take per tag per chase instead of one per group.
    """

    def __init__(self, ws, dtype, sizes: dict) -> None:
        self._bufs = {tag: ws.take(f"bulge_{tag}", (size,), dtype)
                      for tag, size in sizes.items()}
        self._views: dict = {}

    def take(self, tag: str, shape: tuple) -> np.ndarray:
        view = self._views.get((tag, shape))
        if view is None:
            view = self._bufs[tag][: math.prod(shape)].reshape(shape)
            self._views[(tag, shape)] = view
        return view


def _chase(A, qt, b, eng, ws, batch) -> None:
    """Run the wavefront schedule over ``A`` (and ``qt``) in place."""
    n = A.shape[0]
    dtype = A.dtype
    schedule = [wavefront_groups(wave) for wave in wavefront_rounds(n, b)]
    gmax = 1 if not batch else max(
        (len(steps) for groups in schedule for _, steps in groups), default=1
    )
    # Widest row block a step updates: tile + strip (+ all of Q^T).
    width = 2 * b + (n if qt is not None else 0)
    sizes = {tag: gmax * b * b for tag in ("h", "y", "t", "w", "vs", "u")}
    sizes.update(tau=gmax * b, c=gmax * b * width, x=gmax * b * width,
                 z=gmax * b * width)
    sc = _Scratch(ws, dtype, sizes)
    ones = np.ones((b, b), dtype=dtype)
    masks = (np.tril(ones, -1), np.triu(ones), np.triu(ones, 1),
             np.eye(b, dtype=dtype))
    geqrf, trtri = get_lapack_funcs(("geqrf", "trtri"), dtype=dtype)
    dead = bytearray(n)  # sweeps whose bulge vanished (chase died out)
    nrounds = nsteps = nlaunches = 0

    with obs.span("bulge.wavefront", n=n, bandwidth=b) as sp:
        for groups in schedule:
            ran = False
            for key, steps in groups:
                steps = [s for s in steps if not dead[s[0]]]
                if not steps:
                    continue
                ran = True
                units = [steps] if batch else [[s] for s in steps]
                for unit in units:
                    nlaunches += 1
                    nsteps += len(unit)
                    _execute_group(A, qt, key, unit, eng, sc, masks,
                                   geqrf, trtri, dead)
            nrounds += ran
        sp.count("rounds", nrounds)
        sp.count("steps", nsteps)
        sp.count("launches", nlaunches)


def _execute_group(A, qt, key, steps, eng, sc, masks, geqrf, trtri,
                   dead) -> None:
    """Factor and apply one batch group of wavefront steps.

    ``key = (kind, L, w, c2)``; every step in ``steps`` shares it, so all
    gathered stacks are rectangular and the updates launch as single
    batched calls.  Row/column footprints of distinct steps are disjoint
    by the schedule invariant, so gather/scatter order is irrelevant.
    """
    _, L, w, c2 = key
    G = len(steps)
    kk = min(L, w)
    low, upper, supper, eye = masks

    # --- QR of each step's block (the sweep opener's column segment or
    # the hop's bulge block).  ``H[g]`` holds the (L, w) block in Fortran
    # order — by symmetry it is the transposed block A[a0:a1, b0:b1] —
    # which LAPACK factors in place. ---------------------------------------
    H = sc.take("h", (G, w, L))
    taus = sc.take("tau", (G, kk))
    for g, (_, geom) in enumerate(steps):
        H[g] = A[geom[1]:geom[2], geom[3]:geom[4]]
        taus[g] = geqrf(H[g].T, overwrite_a=1)[1]
    degenerate = not taus.all()
    if degenerate:
        alive = taus.any(axis=1)
        if not alive.all():
            # All-zero taus: the block had nothing below its diagonal, so
            # that sweep's chase has died out (identity, nothing to do).
            keep = np.flatnonzero(alive)
            for g in np.flatnonzero(~alive):
                dead[steps[g][0]] = 1
            if not keep.size:
                return
            G = keep.size
            H[:G] = H[keep]
            taus[:G] = taus[keep]
            H, taus = H[:G], taus[:G]
            steps = [steps[g] for g in keep]

    # Split the factor: Y (unit lower trapezoid) and R (written back).
    Ht = H.swapaxes(1, 2)
    Y = sc.take("y", (G, L, kk))
    np.multiply(Ht[:, :, :kk], low[:L, :kk], out=Y)
    np.add(Y, eye[:L, :kk], out=Y)
    np.multiply(Ht, upper[:L, :w], out=Ht)
    for g, (_, geom) in enumerate(steps):
        a0, a1, b0, b1 = geom[1:5]
        A[a0:a1, b0:b1] = H[g]
        A[b0:b1, a0:a1] = Ht[g]

    # --- Compact WY: T^{-1} = diag(1/tau) + striu(Y^T Y), W = Y T.  A
    # zero tau inside a live block is an identity reflector: its Y column
    # is zeroed so it contributes nothing. ---------------------------------
    if degenerate:
        zero = taus == 0
        Y.swapaxes(1, 2)[zero] = 0
        taus[zero] = 1
    Tm = sc.take("t", (G, kk, kk))
    np.matmul(Y.swapaxes(1, 2), Y, out=Tm)
    np.multiply(Tm, supper[:kk, :kk], out=Tm)
    np.divide(1.0, taus, out=Tm.reshape(G, kk * kk)[:, :: kk + 1])
    for g in range(G):
        trtri(Tm[g].T, lower=1, overwrite_c=1)
    W = sc.take("w", (G, L, kk))
    np.matmul(Y, Tm, out=W)

    # --- Two-sided update of the step's rows [b0, b1): the row block
    # C = [D | S | Q^T rows] (tile, strip, transposed Q) takes Q^T from
    # the left in three launches:
    #   X = W^T C = [U^T | T | P]   (U = D W by symmetry of D)
    #   VS = U^T W                  (= W^T D W)
    #   Z = Y [VS | T | P] = [Y VS | Y T | Y P]
    # then S <- S - Y T, Q^T rows <- Q^T rows - Y P, and the tile gets the
    # exactly-symmetric syr2k update of the module docstring with
    # U' = U - (1/2) Y VS. ---------------------------------------------------
    m = L + c2 + (qt.shape[0] if qt is not None else 0)
    C = sc.take("c", (G, L, m))
    for g, (_, geom) in enumerate(steps):
        b0, b1, hi = geom[3:6]
        C[g, :, : hi - b0] = A[b0:b1, b0:hi]
        if qt is not None:
            C[g, :, hi - b0 :] = qt[b0:b1]
    X = eng.gemm_batched(W, C, ta=True, tag=TAG_LEFT,
                         out=sc.take("x", (G, kk, m)))
    VS = eng.gemm_batched(X[:, :, :L], W, tag=TAG_TILE,
                          out=sc.take("vs", (G, kk, kk)))
    U = sc.take("u", (G, L, kk))
    np.copyto(U, X[:, :, :L].swapaxes(1, 2))
    np.copyto(X[:, :, L - kk : L], VS)
    Z = eng.gemm_batched(Y, X[:, :, L - kk :], tag=TAG_UPDATE,
                         out=sc.take("z", (G, L, m - L + kk)))
    YV = Z[:, :, :kk]
    np.multiply(YV, YV.dtype.type(0.5), out=YV)
    np.subtract(U, YV, out=U)
    np.subtract(C[:, :, L:], Z[:, :, kk:], out=C[:, :, L:])
    for g, (_, geom) in enumerate(steps):
        b0, b1, hi = geom[3:6]
        eng.syr2k(Y[g], U[g], tag=TAG_SYR2K, out=A[b0:b1, b0:b1],
                  alpha=-1.0, beta=1.0)
        A[b0:b1, b1:hi] = C[g, :, L : L + c2]
        A[b1:hi, b0:b1] = C[g, :, L : L + c2].T
        if qt is not None:
            qt[b0:b1] = C[g, :, L + c2 :]


# ---------------------------------------------------------------------------
# Band-to-band reduction (Givens).
# ---------------------------------------------------------------------------


def _givens(f: float, g: float) -> tuple[float, float]:
    """Stable Givens pair (c, s) with ``[c s; -s c]^T [f; g] = [r; 0]``."""
    if g == 0.0:
        return 1.0, 0.0
    if f == 0.0:
        return 0.0, 1.0
    r = np.hypot(f, g)
    return f / r, g / r


def _rot_pair(vi: np.ndarray, vk: np.ndarray, c: float, s: float, scratch: np.ndarray) -> None:
    """Rotate the vector pair ``(vi, vk) <- (c vi + s vk, -s vi + c vk)``.

    Allocation-free: both results are formed in place through the two
    preallocated ``scratch`` rows (the saved copy of ``vi`` and one
    product), bitwise identical to the temporary-allocating expression
    ``c*vi + s*vk`` / ``-s*vi + c*vk``.
    """
    w = vi.shape[0]
    sav = scratch[0, :w]
    tmp = scratch[1, :w]
    np.copyto(sav, vi)
    np.multiply(vk, s, out=tmp)
    np.multiply(sav, c, out=vi)
    vi += tmp
    np.multiply(vk, c, out=vk)
    np.multiply(sav, -s, out=tmp)
    vk += tmp


def _rot_rows(A, i, k, c, s, lo, hi, scratch) -> None:
    """Apply G^T from the left to rows (i, k), columns [lo, hi)."""
    _rot_pair(A[i, lo:hi], A[k, lo:hi], c, s, scratch)


def _rot_cols(A, i, k, c, s, lo, hi, scratch) -> None:
    """Apply G from the right to columns (i, k), rows [lo, hi)."""
    _rot_pair(A[lo:hi, i], A[lo:hi, k], c, s, scratch)


def reduce_bandwidth(
    a,
    b: int,
    *,
    target: int = 1,
    want_q: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Reduce a symmetric band matrix's bandwidth from ``b`` to ``target``.

    The multi-step band reduction of the SBR framework (Bischof, Lang &
    Sun 2000): the bandwidth is peeled one outermost diagonal at a time by
    Givens chases.  ``target=1`` is full tridiagonalization by rotations
    (:func:`bulge_chase` is the fast path for that); intermediate targets
    give the band-to-band steps of multi-sweep reduction strategies.

    Returns
    -------
    band : ndarray (n, n)
        Dense symmetric matrix of bandwidth ``target`` with
        ``A ≈ Q band Q^T``.
    q : ndarray (n, n) or None
        Accumulated orthogonal transform (``None`` if not requested).
    """
    a = as_symmetric_matrix(a, rtol=1e-3, atol=1e-4)
    n = a.shape[0]
    if b < 1:
        raise ShapeError(f"bandwidth must be >= 1, got {b}")
    if target < 1 or target > b:
        raise ShapeError(f"target bandwidth must be in [1, {b}], got {target}")
    dtype = a.dtype
    A = np.array(a, copy=True)
    q = np.eye(n, dtype=dtype) if want_q else None
    # One scratch pair reused by every rotation (Θ(n² b) of them): the
    # per-rotation ``.copy()`` temporaries were the hot loop's only
    # allocations.
    scratch = np.empty((2, n), dtype=dtype)

    # Peel the bandwidth one diagonal at a time: cur = current bandwidth.
    for cur in range(min(b, n - 1), target, -1):
        with obs.span("bulge.sweep", bandwidth=cur) as sweep:
            nrot = 0
            for j in range(n - cur):
                # Annihilate the band-edge entry A[j+cur, j], then chase the
                # fill element it spawns every `cur` rows down the band.
                col = j
                r = j + cur
                while r < n:
                    f_val = float(A[r - 1, col])
                    g_val = float(A[r, col])
                    if g_val == 0.0:
                        break
                    c, s = _givens(f_val, g_val)
                    i, k = r - 1, r
                    nrot += 1
                    # Window: all columns where rows (i, k) may be nonzero.
                    lo = max(col, 0)
                    hi = min(k + cur + 1, n)
                    _rot_rows(A, i, k, c, s, lo, hi, scratch)
                    _rot_cols(A, i, k, c, s, lo, hi, scratch)
                    if q is not None:
                        _rot_cols(q, i, k, c, s, 0, n, scratch)
                    # The rotation spawned one fill element at (r + cur, r - 1)
                    # (both triangles); chase it: it is the next entry to kill,
                    # in column r - 1, `cur` rows below the one just zeroed.
                    A[k, col] = 0.0
                    A[col, k] = 0.0
                    col = r - 1
                    r = r + cur
            sweep.count("rotations", nrot)
    return A, q
