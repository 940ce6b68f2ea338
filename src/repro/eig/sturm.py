"""Sturm-sequence eigenvalue counting and bisection.

The Sturm count ``nu(x)`` — the number of eigenvalues of a symmetric
tridiagonal matrix strictly below ``x`` — is computed by the standard
``LDL^T`` pivot recurrence.  On top of it, :func:`eigvals_bisect` brackets
and bisects individual eigenvalues to a requested tolerance, supporting
the "largest/smallest k" and "all in [a, b]" query styles the paper's
related-work section attributes to bisection methods.

The recurrence is vectorized over shifts: counting at ``m`` shifts costs
one O(n·m) NumPy pass, so full-spectrum bisection is O(n² log(1/tol))
with small constants.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError

__all__ = ["sturm_count", "eigvals_bisect"]


def _validate_de(d, e) -> tuple[np.ndarray, np.ndarray]:
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if d.ndim != 1 or e.ndim != 1 or e.size != max(d.size - 1, 0):
        raise ShapeError(f"need d (n,) and e (n-1,), got {d.shape} and {e.shape}")
    return d, e


def sturm_count(d, e, shifts) -> np.ndarray:
    """Number of eigenvalues of tridiag(d, e) strictly below each shift.

    Parameters
    ----------
    d, e : array_like
        Tridiagonal entries.
    shifts : array_like
        Query points (scalar or 1-D).

    Returns
    -------
    counts : ndarray of int, same shape as ``shifts``.
    """
    d, e = _validate_de(d, e)
    x = np.atleast_1d(np.asarray(shifts, dtype=np.float64))
    n = d.size
    tiny = np.finfo(np.float64).tiny

    # LDL^T pivot recurrence, vectorized over the shift axis.
    count = np.zeros(x.shape, dtype=np.int64)
    q = np.full(x.shape, 1.0)
    e2 = np.concatenate([[0.0], e * e])
    for i in range(n):
        # q_i = d_i - x - e_{i-1}^2 / q_{i-1}
        denom = np.where(np.abs(q) < tiny, np.copysign(tiny, q), q)
        q = (d[i] - x) - e2[i] / denom
        count += (q < 0.0).astype(np.int64)
    if np.isscalar(shifts) or np.asarray(shifts).ndim == 0:
        return count.reshape(()).astype(np.int64)
    return count


def eigvals_bisect(
    d,
    e,
    *,
    select: "tuple[int, int] | None" = None,
    interval: "tuple[float, float] | None" = None,
    tol: float = 0.0,
    max_iter: int = 128,
) -> np.ndarray:
    """Eigenvalues of tridiag(d, e) by Sturm bisection.

    Parameters
    ----------
    d, e : array_like
        Tridiagonal entries.
    select : (lo, hi), optional
        Index range of eigenvalues to compute (0-based, ascending,
        half-open).  Default: all.
    interval : (a, b), optional
        Instead of indices, compute all eigenvalues in the half-open
        interval ``(a, b]``.
    tol : float
        Absolute convergence tolerance (default: ~4 ulp of the spectrum
        radius).

    Returns
    -------
    lam : ndarray
        Selected eigenvalues, ascending.
    """
    d, e = _validate_de(d, e)
    n = d.size
    if n == 0:
        return np.empty(0)

    # Gershgorin bounds.
    pad = np.concatenate([[0.0], np.abs(e)]) + np.concatenate([np.abs(e), [0.0]])
    lo = float(np.min(d - pad))
    hi = float(np.max(d + pad))
    radius = max(hi - lo, abs(hi), abs(lo), 1e-300)
    if tol <= 0.0:
        tol = 4.0 * np.finfo(np.float64).eps * radius
    lo -= 2.0 * tol
    hi += 2.0 * tol

    if select is not None and interval is not None:
        raise ShapeError("pass either select or interval, not both")
    if interval is not None:
        a, bnd = interval
        if not a <= bnd:
            raise ShapeError(
                f"interval must have lo <= hi, got interval={interval!r}"
            )
        i_lo = int(sturm_count(d, e, a))
        i_hi = int(sturm_count(d, e, np.nextafter(bnd, np.inf)))
        select = (i_lo, i_hi)
    if select is None:
        select = (0, n)
    i0, i1 = select
    if not (0 <= i0 <= i1 <= n):
        raise ShapeError(f"select out of range: {select} for n={n}")
    k = i1 - i0
    if k == 0:
        return np.empty(0)

    # One bracketing [lo_j, hi_j] per requested eigenvalue, bisected in
    # lockstep (vectorized Sturm counts at all midpoints per iteration).
    lo_v = np.full(k, lo)
    hi_v = np.full(k, hi)
    idx = np.arange(i0, i1)
    for _ in range(max_iter):
        mid = 0.5 * (lo_v + hi_v)
        counts = sturm_count(d, e, mid)
        go_left = counts > idx  # eigenvalue idx_j is below mid
        hi_v = np.where(go_left, mid, hi_v)
        lo_v = np.where(go_left, lo_v, mid)
        if float(np.max(hi_v - lo_v)) <= tol:
            break
    return 0.5 * (lo_v + hi_v)
