"""LOBPCG: locally optimal block preconditioned conjugate gradient.

The paper's §7 lists "iterative methods on GPU" as future work for the
eigenproblem.  LOBPCG (Knyazev 2001) is the canonical GEMM-dominated
iterative eigensolver — every step is a handful of tall-skinny products
plus a small dense Rayleigh–Ritz problem — making it exactly the workload
profile the Tensor-Core engines accelerate.  This implementation routes
its block products through a :class:`repro.gemm.GemmEngine`, so the same
precision-policy studies run on it as on the band reduction.

Algorithm (block size p, seeking the p smallest eigenpairs):

1. residuals ``R = A X - X diag(lam)``; optionally preconditioned;
2. Rayleigh–Ritz over the subspace ``span[X, R, P]`` (P = previous
   directions), solved as a small dense generalized eigenproblem after
   orthonormalizing the basis;
3. update X and the implicit conjugate directions P; deflate converged
   columns by locking.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..errors import ConfigurationError, ConvergenceError, ShapeError
from ..gemm.engine import GemmEngine, PlainEngine
from ..validation import as_symmetric_matrix
from .budget import WallClockBudget

__all__ = ["lobpcg"]


def _orthonormalize(v: np.ndarray) -> np.ndarray:
    """Thin-QR orthonormalization dropping numerically dependent columns."""
    q, r = np.linalg.qr(v)
    diag = np.abs(np.diagonal(r))
    keep = diag > 1e-10 * max(float(diag.max(initial=0.0)), 1e-300)
    return q[:, keep]


def lobpcg(
    a,
    k: int,
    *,
    x0: np.ndarray | None = None,
    largest: bool = False,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
    engine: GemmEngine | None = None,
    tol: float = 1e-8,
    max_iter: int = 200,
    max_seconds: float | None = None,
    rng: np.random.Generator | None = None,
    check_input: bool = True,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Extremal eigenpairs of a symmetric matrix by LOBPCG.

    Parameters
    ----------
    a : array_like (n, n) symmetric
        The matrix.
    k : int
        Number of eigenpairs (smallest by default).
    x0 : ndarray (n, k), optional
        Initial block (default: random).
    largest : bool
        Seek the largest eigenvalues instead of the smallest.
    preconditioner : callable, optional
        Maps a residual block to a preconditioned block (e.g. an
        approximate inverse).
    engine : GemmEngine, optional
        Engine for the block products (tagged ``lobpcg_*``).
    tol : float
        Relative residual tolerance ``||A x - lam x|| <= tol * ||A||``.
    max_seconds : float, optional
        Wall-clock budget; exceeding it raises a structured
        :class:`~repro.errors.BudgetExceededError` (phase ``"lobpcg"``).
    check_input : bool
        Run the input contract (:func:`repro.validation.as_symmetric_matrix`)
        on ``a`` up front; default on.

    Returns
    -------
    lam : ndarray (k,)
        Converged eigenvalues (ascending).
    x : ndarray (n, k)
        Orthonormal eigenvectors.
    iterations : int
        Iterations performed.
    """
    a = as_symmetric_matrix(a, dtype=np.float64, check=check_input)
    n = a.shape[0]
    if not isinstance(k, (int, np.integer)) or k < 1 or 3 * k > n:
        raise ShapeError(f"need 1 <= k <= n/3 for the [X R P] basis, got k={k}, n={n}")
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
    eng = engine if engine is not None else PlainEngine()
    if rng is None:
        rng = np.random.default_rng(0)

    sign = -1.0 if largest else 1.0
    a_work = sign * a
    norm_a = float(np.linalg.norm(a, "fro")) / np.sqrt(n)

    if x0 is not None:
        x = np.asarray(x0, dtype=np.float64)
        if x.shape != (n, k):
            raise ShapeError(f"x0 must be ({n}, {k}), got {x.shape}")
        x = _orthonormalize(x)
    else:
        x = _orthonormalize(rng.standard_normal((n, k)))
    if x.shape[1] < k:
        raise ShapeError("initial block is numerically rank deficient")

    budget = WallClockBudget(max_seconds, phase="lobpcg")
    p: np.ndarray | None = None
    its = 0
    last_resid: float | None = None
    for its in range(1, max_iter + 1):
        budget.check(iterations=its - 1, residual=last_resid)
        ax = np.asarray(eng.gemm(a_work, x, tag="lobpcg_ax"), dtype=np.float64)
        lam = np.einsum("ij,ij->j", x, ax)
        r = ax - x * lam
        resid = np.linalg.norm(r, axis=0)
        last_resid = float(resid.max(initial=0.0))
        if np.all(resid <= tol * max(norm_a, 1e-300)):
            break
        if preconditioner is not None:
            r = np.asarray(preconditioner(r), dtype=np.float64)

        # Orthonormalize R against X, and P against [X, R], but KEEP the
        # three blocks separate: the locally-optimal recurrence needs the
        # coefficient partition u = [u_x; u_r; u_p] to form the new
        # conjugate directions from the (R, P) contribution alone.
        r = r - x @ (x.T @ r)
        r = _orthonormalize(r)
        parts = [x, r]
        if p is not None and p.size:
            p = p - x @ (x.T @ p)
            if r.size:
                p = p - r @ (r.T @ p)
            p = _orthonormalize(p)
            if p.shape[1]:
                parts.append(p)
            else:
                p = None
        basis = np.hstack(parts)
        ab = np.asarray(eng.gemm(a_work, basis, tag="lobpcg_project"), dtype=np.float64)
        t = basis.T @ ab
        t = (t + t.T) / 2.0
        w, u = np.linalg.eigh(t)
        u_k = u[:, :k]
        x_new = basis @ u_k

        # Conjugate directions: the R/P part of the Ritz combination.
        p = basis[:, k:] @ u_k[k:, :]
        if not p.size or float(np.linalg.norm(p)) < 1e-14:
            p = None
        x = _orthonormalize(x_new)
        if x.shape[1] < k:
            # Re-inflate a collapsed block with random directions.
            fill = rng.standard_normal((n, k - x.shape[1]))
            fill -= x @ (x.T @ fill)
            x = _orthonormalize(np.hstack([x, _orthonormalize(fill)]))
    else:
        raise ConvergenceError(
            f"LOBPCG did not reach tol={tol} in {max_iter} iterations",
            iterations=max_iter,
            residual=float(resid.max()),
        )

    # Final Rayleigh-Ritz on the converged block.
    ax = np.asarray(eng.gemm(a_work, x, tag="lobpcg_ax"), dtype=np.float64)
    t = x.T @ ax
    w, u = np.linalg.eigh((t + t.T) / 2.0)
    x = x @ u
    lam = sign * w
    order = np.argsort(lam, kind="stable")
    return lam[order], x[:, order], its
