"""QDWH polar decomposition and QDWH-eig spectral divide & conquer.

The paper's related work (§2.2) surveys polar-decomposition-based
eigensolvers — QDWH-eig (Nakatsukasa & Higham 2013) and its GPU
implementation (Sukkari, Ltaief & Keyes 2016) — as the main alternative
to tridiagonalization-based methods.  This module implements both, giving
the library an independent second eigensolver family to validate the
two-stage pipeline against:

- :func:`qdwh_polar` — QR-based dynamically weighted Halley iteration for
  the polar decomposition ``A = U_p H``.  Cubically convergent; at most
  ~6 iterations for condition numbers up to 1e16.
- :func:`qdwh_eig` — spectral divide & conquer: the polar factor of
  ``A - sigma*I`` is the matrix sign function, whose spectral projector
  splits the spectrum at ``sigma``; recursion on the two invariant
  subspaces yields the full eigendecomposition using only QR and GEMM
  (no tridiagonalization at all).

Notes on scope: the lower bound on ``sigma_min`` that drives the dynamic
weights is taken from exact singular values (cheap at library scale); a
production implementation substitutes a condition estimator.  These are
float64 reference implementations — the experiments use them as an
independent cross-check, not as the Tensor-Core path.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import qr as scipy_qr

from ..errors import ConvergenceError, ShapeError
from ..validation import as_square_matrix, as_symmetric_matrix
from .budget import WallClockBudget

__all__ = ["qdwh_polar", "qdwh_eig"]

_MAX_QDWH_ITER = 40


def qdwh_polar(
    a,
    *,
    tol: float = 1e-14,
    max_iter: int = _MAX_QDWH_ITER,
    max_seconds: float | None = None,
    _budget: "WallClockBudget | None" = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Polar decomposition ``A = U H`` by the QDWH iteration.

    Parameters
    ----------
    a : array_like (m, n), m >= n, full column rank
        Matrix to decompose.
    tol : float
        Convergence tolerance on ``||X_{k+1} - X_k||_F / ||X_k||_F``.
    max_seconds : float, optional
        Wall-clock budget; exceeding it raises a structured
        :class:`~repro.errors.BudgetExceededError` (phase
        ``"qdwh_polar"``).

    Returns
    -------
    u : ndarray (m, n)
        Orthonormal polar factor.
    h : ndarray (n, n)
        Symmetric positive semidefinite factor with ``A = U H``.
    iterations : int
        Iterations used (paper-family bound: <= 6 for kappa <= 1e16).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < a.shape[1] or a.size == 0:
        raise ShapeError(f"qdwh_polar requires m >= n >= 1, got shape {a.shape}")
    m, n = a.shape

    # Scale to ||X||_2 <= 1 and bound sigma_min from below.
    svals = np.linalg.svd(a, compute_uv=False)
    alpha = float(svals[0])
    if alpha == 0.0:
        raise ShapeError("qdwh_polar requires a nonzero matrix")
    smin = float(svals[-1])
    if smin == 0.0:
        raise ShapeError("qdwh_polar requires full column rank")
    x = a / alpha
    l = max(smin / alpha, np.finfo(np.float64).tiny)

    budget = _budget if _budget is not None else WallClockBudget(
        max_seconds, phase="qdwh_polar"
    )
    eye_n = np.eye(n)
    its = 0
    for its in range(1, max_iter + 1):
        budget.check(iterations=its - 1)
        l2 = l * l
        dd = (4.0 * (1.0 - l2) / (l2 * l2)) ** (1.0 / 3.0)
        sqd = np.sqrt(1.0 + dd)
        inner = 8.0 - 4.0 * dd + 8.0 * (2.0 - l2) / (l2 * sqd)
        a_k = sqd + 0.5 * np.sqrt(max(inner, 0.0))
        b_k = (a_k - 1.0) ** 2 / 4.0
        c_k = a_k + b_k - 1.0

        # QR-based update (numerically stable for ill-conditioned X):
        #   [Q1; Q2] R = [sqrt(c) X; I],
        #   X <- (b/c) X + (a - b/c)/sqrt(c) * Q1 Q2^T.
        stacked = np.vstack([np.sqrt(c_k) * x, eye_n])
        q, _ = np.linalg.qr(stacked)
        q1, q2 = q[:m, :], q[m:, :]
        x_new = (b_k / c_k) * x + (a_k - b_k / c_k) / np.sqrt(c_k) * (q1 @ q2.T)

        l = l * (a_k + b_k * l2) / (1.0 + c_k * l2)
        l = min(l, 1.0)
        delta = float(np.linalg.norm(x_new - x, "fro")) / max(
            float(np.linalg.norm(x, "fro")), 1e-300
        )
        x = x_new
        if delta < tol and abs(1.0 - l) < 1e-8:
            break
    else:
        raise ConvergenceError(
            f"QDWH did not converge in {max_iter} iterations",
            iterations=max_iter, residual=delta,
        )

    # Clean-up Newton–Schulz step polishes orthogonality to working accuracy.
    x = 1.5 * x - 0.5 * x @ (x.T @ x)
    h = x.T @ a
    h = (h + h.T) / 2.0
    return x, h, its


def qdwh_eig(
    a,
    *,
    min_size: int = 24,
    tol: float = 1e-14,
    max_seconds: float | None = None,
    check_input: bool = True,
    _depth: int = 0,
    _budget: "WallClockBudget | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition by QDWH spectral divide & conquer.

    Parameters
    ----------
    a : array_like (n, n) symmetric
        Input matrix.
    min_size : int
        Subproblem size below which the library's one-stage Householder
        solver finishes directly.
    max_seconds : float, optional
        Wall-clock budget over the *whole* divide & conquer (one shared
        clock threads through the recursion and the inner polar
        iterations); exceeding it raises a structured
        :class:`~repro.errors.BudgetExceededError` (phase
        ``"qdwh_eig"``).
    check_input : bool
        Run the input contract (:func:`repro.validation.as_symmetric_matrix`)
        on ``a`` up front; default on (subproblems and leaf solves skip it).

    Returns
    -------
    lam : ndarray (n,)
        Eigenvalues, ascending.
    v : ndarray (n, n)
        Orthonormal eigenvectors.
    """
    a = as_symmetric_matrix(a, dtype=np.float64, check=check_input and _depth == 0)
    n = a.shape[0]
    budget = _budget if _budget is not None else WallClockBudget(
        max_seconds, phase="qdwh_eig"
    )
    budget.check(iterations=_depth)
    if n <= max(min_size, 2) or _depth > 60:
        from .driver import syevd_1stage

        res = syevd_1stage(a, check_input=False)
        return res.eigenvalues, res.eigenvectors

    lam_lo, lam_hi = _gershgorin(a)
    if lam_hi - lam_lo < 1e-14 * max(abs(lam_hi), abs(lam_lo), 1.0):
        # Numerically a multiple of the identity.
        return np.full(n, (lam_hi + lam_lo) / 2.0), np.eye(n)

    # Split the spectrum near its middle; nudge the shift if the split
    # degenerates (all eigenvalues on one side).
    sigma = float(np.median(np.diagonal(a)))
    for attempt in range(8):
        shifted = a - sigma * np.eye(n)
        try:
            u, _, _ = qdwh_polar(shifted, tol=tol, _budget=budget)
        except ShapeError:
            # sigma is (numerically) an eigenvalue: perturb and retry.
            sigma += (lam_hi - lam_lo) * 1e-3 * (attempt + 1)
            continue
        # Spectral projector onto eigenvalues above sigma.
        p = (u + np.eye(n)) / 2.0
        k = int(round(float(np.trace(p))))
        if 0 < k < n:
            break
        frac = 0.25 + 0.5 * ((attempt + 1) % 2)
        sigma = lam_lo + (lam_hi - lam_lo) * frac * (1.0 + 0.13 * attempt)
    else:
        raise ConvergenceError("qdwh_eig could not find a splitting shift")

    # Orthonormal bases of the two invariant subspaces from a pivoted QR
    # of the projector (range(P) ⊥ range(I-P)).
    q, _, _ = scipy_qr(p, pivoting=True)
    v1, v2 = q[:, :k], q[:, k:]
    a1 = v1.T @ a @ v1
    a2 = v2.T @ a @ v2

    lam1, w1 = qdwh_eig((a1 + a1.T) / 2.0, min_size=min_size, tol=tol,
                        _depth=_depth + 1, _budget=budget)
    lam2, w2 = qdwh_eig((a2 + a2.T) / 2.0, min_size=min_size, tol=tol,
                        _depth=_depth + 1, _budget=budget)

    lam = np.concatenate([lam1, lam2])
    v = np.hstack([v1 @ w1, v2 @ w2])
    order = np.argsort(lam, kind="stable")
    return lam[order], v[:, order]


def _gershgorin(a: np.ndarray) -> tuple[float, float]:
    radii = np.abs(a).sum(axis=1) - np.abs(np.diagonal(a))
    d = np.diagonal(a)
    return float(np.min(d - radii)), float(np.max(d + radii))
