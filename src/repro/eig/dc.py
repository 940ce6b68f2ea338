"""Symmetric tridiagonal eigensolver: LAPACK ``sterf`` / ``stevd``.

The stage-3 solver the paper's EVD case study takes from MAGMA, here
taken straight from LAPACK:

- **Eigenvalues only** go to ``sterf`` (the root-free Pal–Walker–Kahan
  QL), which forms no eigenvectors.
- **With eigenvectors**, ``stevd`` runs Cuppen's divide & conquer
  (``stedc``): rank-one tears, deflation, the secular equation and
  Löwner-formula vectors, with ``steqr`` on the small leaves.

Both routines scale the matrix into the safe range themselves, so any
finite ``(d, e)`` is accepted.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..errors import ConvergenceError
from ..validation import check_tridiagonal

__all__ = ["tridiag_eig_dc"]

_sterf, _stevd = get_lapack_funcs(("sterf", "stevd"), dtype=np.float64)


def tridiag_eig_dc(
    d,
    e,
    *,
    want_vectors: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of the symmetric tridiagonal (d, e).

    Parameters
    ----------
    d : array_like, shape (n,)
        Diagonal entries.
    e : array_like, shape (n-1,)
        Off-diagonal entries.
    want_vectors : bool
        Whether to return eigenvectors (LAPACK ``stevd``); without them
        the eigenvalues come from ``sterf``.

    Returns
    -------
    lam : ndarray
        Eigenvalues, ascending.
    v : ndarray or None
        Orthonormal eigenvectors (columns), aligned with ``lam``.

    Raises
    ------
    ShapeError
        Malformed or non-finite ``(d, e)``, checked before any LAPACK call.
    ConvergenceError
        A LAPACK routine reported ``info != 0`` (``phase="tridiag_solve"``).
    """
    d, e = check_tridiagonal(d, e)
    if d.size == 1:
        return d.copy(), (np.ones((1, 1)) if want_vectors else None)
    if not want_vectors:
        lam, info = _sterf(d, e)
        check_info(info, "sterf")
        return lam, None
    lam, v, info = _stevd(d, e, compute_v=1)
    check_info(info, "stevd")
    return lam, v


def check_info(info: int, routine: str, *, phase: str = "tridiag_solve") -> None:
    """Map a LAPACK ``info`` flag to a structured error."""
    if info != 0:
        raise ConvergenceError(
            f"LAPACK {routine} failed with info={info}",
            iterations=int(info), phase=phase,
        )
