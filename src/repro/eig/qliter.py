"""Implicit-shift QL iteration for symmetric tridiagonal matrices.

A port of the classic EISPACK ``tql2`` / Numerical-Recipes ``tqli``
algorithm: Wilkinson-shifted QL sweeps applied implicitly via Givens
rotations, deflating converged off-diagonals.  An independent reference
for the D&C tests.

Cost: O(n²) for eigenvalues only, O(n³) with eigenvectors.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConvergenceError, ShapeError
from ..validation import check_tridiagonal
from .budget import WallClockBudget

__all__ = ["tridiag_eig_ql"]

_MAX_SWEEPS = 50


def tridiag_eig_ql(
    d,
    e,
    *,
    want_vectors: bool = True,
    z0: np.ndarray | None = None,
    max_seconds: float | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of the symmetric tridiagonal (d, e).

    Parameters
    ----------
    d : array_like, shape (n,)
        Diagonal entries.
    e : array_like, shape (n-1,)
        Off-diagonal entries.
    want_vectors : bool
        Whether to accumulate eigenvectors.
    z0 : ndarray, optional
        Initial transformation the rotations are accumulated into
        (default: identity).  Pass the stage-1/2 back-transform to fuse
        the final product.
    max_seconds : float, optional
        Wall-clock budget; exceeding it raises a structured
        :class:`~repro.errors.BudgetExceededError` (phase
        ``"ql_iteration"``).

    Returns
    -------
    lam : ndarray, shape (n,)
        Eigenvalues in ascending order.
    z : ndarray (m, n) or None
        Eigenvectors (columns), premultiplied by ``z0`` if given.
    """
    # Shape and finiteness up front: a NaN would otherwise spin the
    # sweeps on NaN rotations instead of raising a ValidationError.
    d, e = check_tridiagonal(d, e)
    d = d.copy()
    n = d.size

    # EISPACK convention: work array e has length n with a zero sentinel.
    e_work = np.zeros(n, dtype=np.float64)
    if n > 1:
        e_work[: n - 1] = e

    z: np.ndarray | None = None
    if want_vectors:
        if z0 is not None:
            z = np.array(z0, dtype=np.float64, copy=True)
            if z.ndim != 2 or z.shape[1] != n:
                raise ShapeError(f"z0 must have {n} columns, got shape {z.shape}")
        else:
            z = np.eye(n, dtype=np.float64)

    budget = WallClockBudget(max_seconds, phase="ql_iteration")
    for l in range(n):
        for sweep in range(_MAX_SWEEPS + 1):
            budget.check(iterations=l * _MAX_SWEEPS + sweep)
            # Find the first deflation point m >= l.
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e_work[m]) <= np.finfo(np.float64).eps * dd:
                    break
                m += 1
            if m == l:
                break
            if sweep == _MAX_SWEEPS:
                raise ConvergenceError(
                    f"QL iteration failed to converge at index {l} "
                    f"after {_MAX_SWEEPS} sweeps",
                    iterations=_MAX_SWEEPS,
                    residual=float(abs(e_work[l])),
                )
            # Wilkinson shift from the leading 2x2.
            g = (d[l + 1] - d[l]) / (2.0 * e_work[l])
            r = np.hypot(g, 1.0)
            g = d[m] - d[l] + e_work[l] / (g + (r if g >= 0 else -r))
            s = 1.0
            c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e_work[i]
                bb = c * e_work[i]
                r = np.hypot(f, g)
                e_work[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e_work[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * bb
                p = s * r
                d[i + 1] = g + p
                g = c * r - bb
                if z is not None:
                    zi = z[:, i].copy()
                    z[:, i + 1], z[:, i] = s * zi + c * z[:, i + 1], c * zi - s * z[:, i + 1]
            else:
                d[l] -= p
                e_work[l] = g
                e_work[m] = 0.0
                continue
            continue

    order = np.argsort(d, kind="stable")
    lam = d[order]
    if z is not None:
        z = z[:, order]
    return lam, z
