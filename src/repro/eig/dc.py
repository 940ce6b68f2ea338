"""Cuppen's divide & conquer for the symmetric tridiagonal eigenproblem.

Built the way LAPACK ``stedc`` is, the routine behind the MAGMA divide &
conquer stage the paper calls after its band reduction:

- **Eigenvalues only** go to LAPACK ``sterf`` (the root-free
  Pal–Walker–Kahan QL), which needs no eigenvectors at any level.
- **With eigenvectors**, the matrix is scaled by a power of two to
  ``max |entry|`` in [1/2, 1) (exact, and undone on the eigenvalues), then
  torn at the midpoint into a block-diagonal part plus a rank-one
  correction,

      T = [T1' 0; 0 T2'] + beta * u u^T,     u = e_m + e_{m+1},

  children are solved recursively, leaves of size <= ``cutoff`` by LAPACK
  ``steqr``, and the merge diagonalizes ``diag(D) + rho z z^T`` via
  deflation + the secular solver (:mod:`repro.eig.secular`).

Deflation (LAPACK ``slaed2``):

1. components ``|rho| z_i^2`` below tolerance — the child eigenpair is
   already an eigenpair of the merged system;
2. (near-)equal eigenvalues ``D_i ≈ D_j`` — a Givens rotation zeroes one
   of the two ``z`` components, deflating it.

Deflation is not an optimization detail: the secular solver *requires*
strictly separated poles and nonzero components, and clustered spectra
(the paper's cluster0/cluster1 matrix classes) deflate almost entirely.
Each merge adds its deflated count to the ``deflated`` counter of the
innermost telemetry span.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..errors import ConvergenceError, ShapeError
from ..obs import spans as obs
from ..validation import check_tridiagonal
from .secular import secular_eig

__all__ = ["tridiag_eig_dc"]

_sterf, _stev = get_lapack_funcs(("sterf", "stev"), dtype=np.float64)


def tridiag_eig_dc(
    d,
    e,
    *,
    want_vectors: bool = True,
    cutoff: int = 32,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of the symmetric tridiagonal (d, e) by D&C.

    Parameters
    ----------
    d : array_like, shape (n,)
        Diagonal entries.
    e : array_like, shape (n-1,)
        Off-diagonal entries.
    want_vectors : bool
        Whether to return eigenvectors.  Without them the eigenvalues
        come from LAPACK ``sterf`` and no recursion runs.
    cutoff : int
        Subproblem size at or below which LAPACK ``steqr`` solves a leaf
        directly.

    Returns
    -------
    lam : ndarray
        Eigenvalues, ascending.
    v : ndarray or None
        Orthonormal eigenvectors (columns), aligned with ``lam``.

    Raises
    ------
    ShapeError
        Malformed or non-finite ``(d, e)``, checked before any LAPACK
        call, or ``cutoff < 3``.
    ConvergenceError
        A LAPACK routine reported ``info != 0`` (``phase="tridiag_solve"``).
    """
    d, e = check_tridiagonal(d, e)
    if cutoff < 3:
        raise ShapeError(f"cutoff must be >= 3, got {cutoff}")
    if d.size == 1:
        return d.copy(), (np.ones((1, 1)) if want_vectors else None)
    if not want_vectors:
        lam, info = _sterf(d, e)
        _check_info(info, "sterf")
        return lam, None
    # The secular solver's squared terms over- or underflow far from
    # unit scale (at |T| ~ 1e-150 its vectors lose all orthogonality).
    anorm = max(float(np.abs(d).max()), float(np.abs(e).max(initial=0.0)))
    _, exp = np.frexp(anorm)
    lam, v = _dc(np.ldexp(d, -exp), np.ldexp(e, -exp), cutoff)
    return np.ldexp(lam, exp), v


def _check_info(info: int, routine: str) -> None:
    """Map a LAPACK ``info`` flag to a structured error."""
    if info != 0:
        raise ConvergenceError(
            f"LAPACK {routine} failed with info={info}",
            iterations=int(info), phase="tridiag_solve",
        )


def _dc(d: np.ndarray, e: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    n = d.size
    if n <= cutoff:
        lam, v, info = _stev(d, e, compute_v=1)
        _check_info(info, "steqr")
        return lam, v

    m = n // 2
    beta = float(e[m - 1])
    if beta == 0.0:
        # Already block diagonal: merge the children trivially.
        lam1, q1 = _dc(d[:m], e[: m - 1], cutoff)
        lam2, q2 = _dc(d[m:], e[m:], cutoff)
        lam = np.concatenate([lam1, lam2])
        v = np.zeros((n, n))
        v[:m, :m] = q1
        v[m:, m:] = q2
        order = np.argsort(lam, kind="stable")
        return lam[order], v[:, order]

    # Rank-one tear: T = blkdiag(T1', T2') + beta u u^T.
    d1 = d[:m].copy()
    d1[-1] -= beta
    d2 = d[m:].copy()
    d2[0] -= beta
    lam1, q1 = _dc(d1, e[: m - 1], cutoff)
    lam2, q2 = _dc(d2, e[m:], cutoff)

    # z = blkdiag(Q1, Q2)^T u: last row of Q1 stacked on first row of Q2.
    dd = np.concatenate([lam1, lam2])
    z = np.concatenate([q1[-1, :], q2[0, :]])

    lam, v_inner, u_cols = _merge(dd, z, beta, q1, q2)
    return lam, _assemble(q1, q2, u_cols, v_inner)


def _merge(
    dd: np.ndarray,
    z: np.ndarray,
    rho: float,
    q1: np.ndarray,
    q2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deflate and solve the rank-one update ``diag(dd) + rho z z^T``.

    Returns ``(lam_sorted, v, u_cols)`` where ``u_cols`` is the n×n basis
    (the sorted/rotated child eigenvector combination matrix) and ``v``
    the eigenvectors in that basis, both aligned with ``lam_sorted``.
    """
    n = dd.size
    order = np.argsort(dd, kind="stable")
    dd = dd[order].copy()
    z = z[order].copy()

    # u_cols starts as the permutation of blkdiag(Q1, Q2) columns; pair
    # deflation applies Givens rotations to it (recorded here against the
    # *sorted* coordinate system, materialized in _basis_ops).
    rotations: list[tuple[int, int, float, float]] = []

    norm_scale = max(float(np.abs(dd).max(initial=0.0)), abs(rho) * float(z @ z), 1e-300)
    tol = 8.0 * np.finfo(np.float64).eps * norm_scale

    active = np.ones(n, dtype=bool)

    # --- Small-component deflation first. --------------------------------
    # Dropping z_i perturbs the matrix by the rank-one cross terms
    # |rho| * |z_i| * |z_j| — *linear* in z_i (a quadratic criterion would
    # deflate sqrt(eps)-sized couplings and cost half the digits in the
    # eigenvector residual).
    zmax = float(np.abs(z).max(initial=0.0))
    active &= np.abs(rho) * np.abs(z) * zmax > tol

    # --- Pair deflation: near-equal poles among the active set. ----------
    # Walk consecutive active entries; whenever their gap is within tol,
    # a Givens rotation G (with c = z_j/h, s = z_i/h) sends z_i -> 0 and
    # z_j -> h, at the price of an off-diagonal c*s*(dd_j - dd_i) <= tol
    # that is dropped.  The diagonal pair becomes a convex combination,
    # preserving the global ordering.
    act_idx = np.nonzero(active)[0]
    p = 0
    while p < act_idx.size - 1:
        i, j = int(act_idx[p]), int(act_idx[p + 1])
        if dd[j] - dd[i] <= tol:
            h = float(np.hypot(z[i], z[j]))
            if h > 0.0:
                c = z[j] / h
                s = z[i] / h
                z[i] = 0.0
                z[j] = h
                di, dj = dd[i], dd[j]
                dd[i] = c * c * di + s * s * dj
                dd[j] = s * s * di + c * c * dj
                rotations.append((i, j, c, s))
                active[i] = False
                act_idx = np.delete(act_idx, p)
                continue
        p += 1

    keep = np.nonzero(active)[0]
    defl = np.nonzero(~active)[0]
    obs.counter("deflated", int(defl.size))

    lam = np.empty(n)
    v = np.zeros((n, n))
    if keep.size:
        lam_k, v_k = secular_eig(dd[keep], z[keep], rho, want_vectors=True)
        lam[: keep.size] = lam_k
        v[np.ix_(keep, np.arange(keep.size))] = v_k
    lam[keep.size :] = dd[defl]
    v[defl, keep.size + np.arange(defl.size)] = 1.0

    final = np.argsort(lam, kind="stable")
    lam = lam[final]
    v = v[:, final]
    return lam, v, _basis_ops(order, rotations, q1, q2)


def _basis_ops(order, rotations, q1, q2) -> np.ndarray:
    """Materialize U = blkdiag(Q1, Q2)[:, order] with deflation rotations."""
    m = q1.shape[0]
    n = m + q2.shape[0]
    u = np.zeros((n, n))
    u[:m, :m] = q1
    u[m:, m:] = q2
    u = u[:, order]
    if rotations:
        # One scratch pair for all deflation rotations (clustered spectra
        # deflate almost entirely, so this loop can run Θ(n) times).
        sav = np.empty(n)
        tmp = np.empty(n)
    for i, j, c, s in rotations:
        ui = u[:, i]
        uj = u[:, j]
        # Column update matching z <- G^T z with G = [[c, s], [-s, c]],
        # allocation-free and bitwise identical to c*ui - s*uj / s*ui + c*uj.
        np.copyto(sav, ui)
        np.multiply(uj, s, out=tmp)
        np.multiply(sav, c, out=ui)
        ui -= tmp
        np.multiply(uj, c, out=uj)
        np.multiply(sav, s, out=tmp)
        np.add(tmp, uj, out=uj)
    return u


def _assemble(q1, q2, u_cols: np.ndarray, v_inner: np.ndarray) -> np.ndarray:
    """Final eigenvectors: the deflation basis times the inner vectors.

    When the tear splits the problem evenly, the product is issued as one
    batched matmul over the two half-height row blocks — the shape a
    device back-transform maps onto ``gemm_batched``.
    """
    m = q1.shape[0]
    n = u_cols.shape[0]
    if 2 * m == n and u_cols.flags.c_contiguous:
        return np.matmul(u_cols.reshape(2, m, n), v_inner).reshape(n, n)
    return u_cols @ v_inner
