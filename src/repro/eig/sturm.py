"""Sturm-sequence eigenvalue counting and bisection (LAPACK ``?stebz``).

The Sturm count ``nu(x)`` — the number of eigenvalues of a symmetric
tridiagonal matrix strictly below ``x`` — is computed by the standard
``LDL^T`` pivot recurrence, vectorized over the shifts.
:func:`eigvals_bisect` hands bisection to LAPACK ``dstebz``, supporting
the "largest/smallest k" and "all in (a, b]" query styles the paper's
related-work section attributes to bisection methods.

Neither the recurrence nor ``?stebz`` scales its input, so both run on
``(d, e)`` multiplied by one power of two that brings ``max(|d|, |e|)``
into LAPACK's safe range (the ``?stevx`` recipe,
:func:`scale_to_safe_range`); inverse iteration shares the helper.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..errors import ShapeError
from ..validation import check_tridiagonal
from .dc import check_info

__all__ = ["sturm_count", "eigvals_bisect"]

_stebz = get_lapack_funcs("stebz", dtype=np.float64)

_SAFMIN = float(np.finfo(np.float64).tiny)
_SMLNUM = _SAFMIN / float(np.finfo(np.float64).eps)
#: ``?stevx``'s safe range for ``max(|d|, |e|)``: squares neither
#: overflow nor underflow inside it.
_RMIN = float(np.sqrt(_SMLNUM))
_RMAX = float(min(np.sqrt(1.0 / _SMLNUM), 1.0 / np.sqrt(np.sqrt(_SAFMIN))))


def scale_to_safe_range(d: np.ndarray, e: np.ndarray):
    """Scale ``(d, e)`` by a power of two into LAPACK's safe range.

    Returns ``(s*d, s*e, s)``; ``s`` is 1.0 when ``max(|d|, |e|)`` is
    zero or already inside ``[_RMIN, _RMAX]``.  Being a power of two,
    ``s`` changes no bits unless an entry leaves the normal range.  For
    ``n == 1`` the scaled ``e`` is one zero: scipy's ``?stebz`` /
    ``?stein`` wrappers reject an empty off-diagonal.
    """
    tnrm = max(float(np.abs(d).max()), float(np.abs(e).max(initial=0.0)))
    if tnrm == 0.0 or _RMIN <= tnrm <= _RMAX:
        s = 1.0
    elif tnrm < _RMIN:
        s = 2.0 ** np.ceil(np.log2(_RMIN / tnrm))
    else:
        s = 2.0 ** np.floor(np.log2(_RMAX / tnrm))
    return d * s, (e * s if e.size else np.zeros(1)), s


def sturm_count(d, e, shifts) -> np.ndarray:
    """Number of eigenvalues of tridiag(d, e) strictly below each shift.

    Parameters
    ----------
    d, e : array_like
        Tridiagonal entries (validated by
        :func:`~repro.validation.check_tridiagonal`).
    shifts : array_like
        Query points (scalar or 1-D).

    Returns
    -------
    counts : ndarray of int, same shape as ``shifts``.
    """
    d, e, s = scale_to_safe_range(*check_tridiagonal(d, e))
    x = np.atleast_1d(np.asarray(shifts, dtype=np.float64)) * s
    tiny = np.finfo(np.float64).tiny

    # LDL^T pivot recurrence, vectorized over the shift axis.
    count = np.zeros(x.shape, dtype=np.int64)
    q = np.full(x.shape, 1.0)
    e2 = np.concatenate([[0.0], e * e])
    for i in range(d.size):
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
) -> np.ndarray:
    """Eigenvalues of tridiag(d, e) by bisection (LAPACK ``?stebz``).

    Parameters
    ----------
    d, e : array_like
        Tridiagonal entries; ``n == 0`` returns an empty array.
    select : (lo, hi), optional
        Index range of eigenvalues to compute (0-based, ascending,
        half-open).  Default: all.
    interval : (a, b), optional
        Instead of indices, compute all eigenvalues in the half-open
        interval ``(a, b]``.
    tol : float
        Absolute convergence tolerance; ``<= 0`` (the default) uses
        LAPACK's ``ulp * ||T||``.

    Returns
    -------
    lam : ndarray
        Selected eigenvalues, ascending.

    Raises
    ------
    ShapeError
        Malformed or non-finite ``(d, e)``, both selectors given, or an
        empty / out-of-range selection bound.
    ConvergenceError
        ``?stebz`` reported ``info != 0`` (``phase="bisect"``).
    """
    if np.size(d) == 0 and np.size(e) == 0:
        return np.empty(0)
    d, e, s = scale_to_safe_range(*check_tridiagonal(d, e))
    n = d.size
    if select is not None and interval is not None:
        raise ShapeError("pass either select or interval, not both")
    if interval is not None:
        a, b = interval
        if not a <= b:
            raise ShapeError(
                f"interval must have lo <= hi, got interval={interval!r}"
            )
        if a == b:
            return np.empty(0)
        # Range "V": eigenvalues in (vl, vu].
        m, w, _, _, info = _stebz(d, e, 1, a * s, b * s, 0, 0, tol * s, "E")
    else:
        i0, i1 = (0, n) if select is None else select
        if not (0 <= i0 <= i1 <= n):
            raise ShapeError(f"select out of range: {select} for n={n}")
        if i0 == i1:
            return np.empty(0)
        # Range "I": the il-th through iu-th eigenvalues, 1-based.
        m, w, _, _, info = _stebz(d, e, 2, 0.0, 0.0, i0 + 1, i1, tol * s, "E")
    check_info(info, "stebz", phase="bisect")
    return w[:m] / s
