"""Inverse iteration for eigenvectors of symmetric tridiagonal matrices.

Complements Sturm bisection (:mod:`repro.eig.sturm`): bisection produces
selected eigen*values*; inverse iteration recovers their eigen*vectors*,
with Gram–Schmidt reorthogonalization inside eigenvalue clusters (the
classic LAPACK ``stein`` strategy).  Together they form the
"subset of eigenpairs" solver style the paper's related work discusses.

Each solve uses the factored shifted tridiagonal (Thomas algorithm with
partial pivoting), O(n) per iteration.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConvergenceError, ShapeError
from ..validation import check_finite_vector, check_tridiagonal
from .budget import WallClockBudget

__all__ = ["tridiag_inverse_iteration"]

_MAX_ITER = 8


def _solve_shifted_tridiag(d, e, shift, rhs):
    """Solve ``(T - shift I) x = rhs`` via banded LU with partial pivoting.

    Uses LAPACK ``gbsv`` (scipy ``solve_banded``); if the shifted matrix is
    numerically singular — the shift sits exactly on an eigenvalue — the
    shift is nudged by a few ulps, the standard inverse-iteration guard.
    """
    from scipy.linalg import solve_banded

    n = d.size
    base = max(float(np.abs(d).max(initial=0.0) + 2 * np.abs(e).max(initial=0.0)), 1.0)
    nudge = 0.0
    for _ in range(4):
        ab = np.zeros((3, n))
        ab[0, 1:] = e
        ab[1, :] = d - (shift + nudge)
        ab[2, :-1] = e
        try:
            with np.errstate(all="ignore"):
                out = solve_banded((1, 1), ab, rhs, check_finite=False)
            if np.all(np.isfinite(out)):
                return out
        except Exception:
            pass
        nudge = (nudge or np.finfo(np.float64).eps * base) * 8.0
    raise ConvergenceError(
        f"shifted tridiagonal solve failed at shift {shift!r}",
        iterations=4, phase="inverse_iteration",
    )


def tridiag_inverse_iteration(
    d,
    e,
    eigenvalues,
    *,
    cluster_tol: float | None = None,
    rng: np.random.Generator | None = None,
    max_seconds: float | None = None,
    check_input: bool = True,
) -> np.ndarray:
    """Eigenvectors of tridiag(d, e) for precomputed eigenvalues.

    Parameters
    ----------
    d, e : array_like
        Tridiagonal entries (diagonal, off-diagonal).
    eigenvalues : array_like
        Converged eigenvalues (e.g. from :func:`repro.eig.eigvals_bisect`),
        in ascending order.
    cluster_tol : float, optional
        Eigenvalues closer than this are treated as a cluster and their
        vectors reorthogonalized against each other.  Default follows
        LAPACK ``stein``: ``1e-3 * ||T||`` — vectors of closer eigenvalues
        are individually ill-determined (error ~ eps ||T|| / gap), so only
        explicit reorthogonalization keeps the basis orthonormal.
    rng : numpy.random.Generator, optional
        Source of the random start vectors.
    max_seconds : float, optional
        Wall-clock budget; exceeding it raises a structured
        :class:`~repro.errors.BudgetExceededError` (phase
        ``"inverse_iteration"``).
    check_input : bool
        Validate ``(d, e)`` and ``eigenvalues`` up front (shape +
        finiteness) with a structured
        :class:`~repro.errors.ValidationError`; default on.

    Returns
    -------
    v : ndarray, shape (n, k)
        Orthonormal eigenvector columns aligned with ``eigenvalues``.
    """
    if check_input:
        d, e = check_tridiagonal(d, e)
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    lam = np.asarray(eigenvalues, dtype=np.float64)
    n = d.size
    if d.ndim != 1 or e.ndim != 1 or e.size != max(n - 1, 0):
        raise ShapeError(f"need d (n,) and e (n-1,), got {d.shape} and {e.shape}")
    if lam.ndim != 1:
        raise ShapeError(f"eigenvalues must be 1-D, got shape {lam.shape}")
    if check_input and lam.size:
        check_finite_vector(lam, name="eigenvalues")
    if rng is None:
        rng = np.random.default_rng(0)

    norm_t = float(np.abs(d).max(initial=0.0) + 2 * np.abs(e).max(initial=0.0))
    if cluster_tol is None:
        cluster_tol = 1e-3 * max(norm_t, 1e-300)

    budget = WallClockBudget(max_seconds, phase="inverse_iteration")
    k = lam.size
    v = np.zeros((n, k))
    cluster_start = 0
    for j in range(k):
        if j > 0 and lam[j] - lam[j - 1] > cluster_tol:
            cluster_start = j
        vec = rng.standard_normal(n)
        vec /= np.linalg.norm(vec)
        converged = False
        for it in range(_MAX_ITER):
            budget.check(iterations=j * _MAX_ITER + it)
            vec = _solve_shifted_tridiag(d, e, lam[j], vec)
            # Reorthogonalize within the current cluster (twice is enough).
            for _pass in range(2):
                for p in range(cluster_start, j):
                    vec -= (v[:, p] @ vec) * v[:, p]
            nrm = float(np.linalg.norm(vec))
            if nrm == 0.0 or not np.isfinite(nrm):
                vec = rng.standard_normal(n)
                vec /= np.linalg.norm(vec)
                continue
            grew = nrm > 1.0 / (np.finfo(np.float64).eps * np.sqrt(n) * max(norm_t, 1.0))
            vec /= nrm
            if grew:
                converged = True
                break
        if not converged:
            # Accept the best iterate if its residual is small anyway.
            resid = np.abs(
                d * vec
                + np.concatenate([[0.0], e * vec[:-1]])
                + np.concatenate([e * vec[1:], [0.0]])
                - lam[j] * vec
            ).max()
            if resid > 1e-8 * max(norm_t, 1.0):
                raise ConvergenceError(
                    f"inverse iteration failed for eigenvalue {lam[j]!r}",
                    residual=float(resid), phase="inverse_iteration",
                )
        v[:, j] = vec

    # Final in-cluster re-orthonormalization: sequential Gram-Schmidt can
    # leave O(sqrt(eps)) cross-talk in tight clusters; a thin QR of each
    # cluster block stays inside the (converged) invariant subspace.
    lo = 0
    for j in range(1, k + 1):
        if j == k or lam[j] - lam[j - 1] > cluster_tol:
            if j - lo > 1:
                v[:, lo:j] = np.linalg.qr(v[:, lo:j])[0]
            lo = j
    return v
