"""Secular-equation solver for the rank-one modified diagonal eigenproblem.

Divide & conquer reduces each merge step to the eigendecomposition of

    M = diag(d) + rho * z z^T,      d strictly ascending, z_i != 0,

whose eigenvalues are the roots of the *secular equation*

    f(lam) = 1 + rho * sum_i z_i^2 / (d_i - lam) = 0.

For ``rho > 0`` the roots strictly interlace: ``d_j < lam_j < d_{j+1}``
(and ``lam_{n-1} < d_{n-1} + rho ||z||^2``).  Each root is found by a
bisection-safeguarded Newton iteration **anchored at the nearest pole**:
the unknown is the offset ``t = lam - d_anchor``, so the critical
difference ``d_anchor - lam`` is ``-t`` exactly, with no cancellation.
All n roots iterate in lockstep (one vectorized O(n²) pass per sweep).

Eigenvectors are *not* formed from the original ``z``: following Gu &
Eisenstat (and LAPACK ``slaed3``), a modified ``z_hat`` is recomputed by
the Löwner formula so that the computed roots are the **exact**
eigenvalues of ``diag(d) + rho * z_hat z_hat^T``; the vectors

    v_j ∝ z_hat_i / (d_i - lam_j)

are then orthogonal to working precision regardless of clustered roots.

``rho < 0`` is handled by the negation symmetry
``eig(D + rho z z^T) = -eig(-D + |rho| z z^T)`` (with order reversed).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConvergenceError, ShapeError
from ..obs import spans as obs

__all__ = ["solve_secular", "secular_eig"]

_MAX_SWEEPS = 120


def solve_secular(
    d,
    z,
    rho: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of the secular equation for ``diag(d) + rho z z^T``, rho > 0.

    Each call adds its sweep count to the ``secular_sweeps`` counter of
    the innermost telemetry span.  A call that runs all ``_MAX_SWEEPS``
    sweeps and is accepted only because every bracket is narrower than
    ``1e-6 * max(1, max|d|)`` adds one to ``secular_capped`` (others add
    zero, so the counter is always present).

    Parameters
    ----------
    d : array_like, shape (n,)
        Strictly ascending pole locations.
    z : array_like, shape (n,)
        Update vector (all entries nonzero; callers deflate zeros first).
    rho : float
        Positive rank-one weight.

    Returns
    -------
    lam : ndarray, shape (n,)
        Roots in ascending order (``lam = d[anchor] + offset``).
    anchor : ndarray of int, shape (n,)
        Index of the pole each root is anchored to.
    offset : ndarray, shape (n,)
        Offset from the anchor pole; keep (anchor, offset) to evaluate
        differences ``d_i - lam_j`` without cancellation.
    """
    d = np.asarray(d, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    n = d.size
    if d.ndim != 1 or z.shape != d.shape:
        raise ShapeError(f"d and z must be equal-length vectors, got {d.shape}, {z.shape}")
    if n == 0:
        return np.empty(0), np.empty(0, dtype=np.int64), np.empty(0)
    if rho <= 0.0:
        raise ShapeError(f"solve_secular requires rho > 0, got {rho}")
    if n > 1 and not np.all(np.diff(d) > 0):
        raise ShapeError("poles d must be strictly ascending")

    zsq = z * z
    znorm2 = float(zsq.sum())

    # Interval for root j: (d_j, d_{j+1}); last root: (d_{n-1}, d_{n-1}+rho|z|^2).
    upper = np.concatenate([d[1:], [d[-1] + rho * znorm2]])
    gap = upper - d

    # Anchor each root at the nearest pole, decided by the sign of f at the
    # interval midpoint: f(mid) > 0 means the root lies left of mid (anchor
    # at d_j), else right (anchor at the upper end).
    mid = d + 0.5 * gap
    f_mid = 1.0 + rho * (zsq[np.newaxis, :] / (d[np.newaxis, :] - mid[:, np.newaxis])).sum(axis=1)
    left = f_mid > 0.0
    anchor = np.where(left, np.arange(n), np.minimum(np.arange(n) + 1, n - 1))
    # The last root anchors at d_{n-1} always (there is no pole above it).
    anchor[-1] = n - 1
    a_val = np.where(np.arange(n) == n - 1, d[-1], np.where(left, d, upper))

    # Offset bounds (t = lam - a_val): root in (d_j, upper_j).
    t_lo = d - a_val
    t_hi = upper - a_val
    # Keep the bracket strictly inside the poles.
    t = 0.5 * (t_lo + t_hi)

    # d_i - a_j, exact where d_i is the anchor itself.
    dma = d[np.newaxis, :] - a_val[:, np.newaxis]

    capped = 0
    for sweep in range(_MAX_SWEEPS):
        denom = dma - t[:, np.newaxis]  # d_i - lam_j, anchored
        terms = zsq[np.newaxis, :] / denom
        f = 1.0 + rho * terms.sum(axis=1)
        fp = rho * (terms / denom).sum(axis=1)  # f'(lam) in lam; df/dt = +f'
        # Update brackets from the sign of f (f is increasing in lam).
        t_lo = np.where(f < 0.0, t, t_lo)
        t_hi = np.where(f >= 0.0, t, t_hi)
        # Newton candidate; bisect where invalid or out of bracket.
        with np.errstate(divide="ignore", invalid="ignore"):
            t_new = t - f / fp
        bad = ~np.isfinite(t_new) | (t_new <= t_lo) | (t_new >= t_hi)
        t_new = np.where(bad, 0.5 * (t_lo + t_hi), t_new)
        # Convergence must be *relative in the anchored offset t*: the
        # Löwner eigenvector formula divides by (d_anchor - lam) = -t, so
        # an absolute-in-lambda tolerance silently costs half the digits
        # for roots hugging a pole.
        eps = np.finfo(np.float64).eps
        step_ok = np.abs(t_new - t) <= 8.0 * eps * np.abs(t_new)
        bracket_ok = (t_hi - t_lo) <= 8.0 * eps * np.maximum(np.abs(t_lo), np.abs(t_hi))
        t = t_new
        if bool(np.all(step_ok | bracket_ok)):
            break
    else:
        width = float(np.max(t_hi - t_lo))
        if width > 1e-6 * max(1.0, float(np.abs(d).max())):
            raise ConvergenceError(
                f"secular solver failed to converge (max bracket width {width:.3e})",
                residual=width, phase="tridiag_solve",
            )
        capped = 1
    obs.counter("secular_sweeps", sweep + 1)
    obs.counter("secular_capped", capped)

    lam = a_val + t
    return lam, anchor.astype(np.int64), t


def _lowner_zhat(
    d: np.ndarray,
    rho: float,
    anchor: np.ndarray,
    offset: np.ndarray,
    sign_z: np.ndarray,
) -> np.ndarray:
    """Recompute the update vector so the computed roots are exact (Löwner).

    ``z_hat_i^2 = prod_j (lam_j - d_i) / (rho * prod_{j != i} (d_j - d_i))``
    evaluated as a product of O(1) interlaced ratios (LAPACK ``slaed3``
    pairing) to avoid over/underflow.
    """
    n = d.size
    # lam_j - d_i, computed through the anchor: (d_aj - d_i) + t_j.
    dl = (d[anchor][np.newaxis, :] - d[:, np.newaxis]) + offset[np.newaxis, :]
    # d_j - d_i.
    dd = d[np.newaxis, :] - d[:, np.newaxis]

    i_idx = np.arange(n)[:, np.newaxis]
    j_idx = np.arange(n)[np.newaxis, :]

    # Pair lam_j with d_j for j < i, with d_{j+1} for i <= j <= n-2; the
    # last root contributes (lam_{n-1} - d_i) / rho unpaired.
    ratio = np.ones((n, n))
    mask_lo = j_idx < i_idx
    mask_hi = (j_idx >= i_idx) & (j_idx <= n - 2)
    dd_shift = np.empty_like(dd)
    dd_shift[:, : n - 1] = dd[:, 1:]
    dd_shift[:, n - 1] = 1.0  # unused
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mask_lo, dl / np.where(mask_lo, dd, 1.0), ratio)
        ratio = np.where(mask_hi, dl / np.where(mask_hi, dd_shift, 1.0), ratio)
    prod = np.prod(ratio, axis=1)
    zhat_sq = prod * dl[:, n - 1] / rho
    zhat_sq = np.maximum(zhat_sq, 0.0)  # clip rounding-negative values
    return sign_z * np.sqrt(zhat_sq)


def secular_eig(
    d,
    z,
    rho: float,
    *,
    want_vectors: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Full eigendecomposition of ``diag(d) + rho z z^T`` (any rho sign).

    Parameters
    ----------
    d : array_like, shape (n,)
        Strictly ascending diagonal (callers deflate ties first).
    z : array_like, shape (n,)
        Update vector with no (numerically) zero entries.
    rho : float
        Rank-one weight; ``rho < 0`` handled by negation symmetry.

    Returns
    -------
    lam : ndarray
        Eigenvalues ascending.
    v : ndarray (n, n) or None
        Orthonormal eigenvectors (columns), aligned with ``lam``.
    """
    d = np.asarray(d, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    n = d.size
    if n == 0:
        return np.empty(0), (np.empty((0, 0)) if want_vectors else None)
    if rho == 0.0:
        return d.copy(), (np.eye(n) if want_vectors else None)

    if rho < 0.0:
        # eig(D + rho z z^T) = -eig(-D + |rho| z z^T); reverse to keep
        # poles ascending.
        lam_neg, v = secular_eig(d[::-1] * -1.0, z[::-1], -rho, want_vectors=want_vectors)
        lam = -lam_neg[::-1]
        if v is not None:
            v = v[::-1, ::-1]
        return lam, v

    lam, anchor, offset = solve_secular(d, z, rho)
    if not want_vectors:
        return lam, None

    zhat = _lowner_zhat(d, rho, anchor, offset, np.where(z >= 0, 1.0, -1.0))
    # v_j(i) = zhat_i / (d_i - lam_j), normalized.
    denom = (d[:, np.newaxis] - d[anchor][np.newaxis, :]) - offset[np.newaxis, :]
    v = zhat[:, np.newaxis] / denom
    v /= np.linalg.norm(v, axis=0, keepdims=True)
    return lam, v
