"""Implicit QL/QR iteration for symmetric tridiagonal matrices (``?stev``).

LAPACK ``dstev``: the root-free QL/QR ``sterf`` for eigenvalues only,
implicit-shift QL/QR ``steqr`` with eigenvectors.  An algorithm
independent of the divide & conquer in :mod:`repro.eig.dc`, so the
tests that compare the two keep their meaning.  ``?stev`` scales the
matrix into the safe range itself.

Cost: O(n²) for eigenvalues only, O(n³) with eigenvectors.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..errors import ShapeError
from ..validation import check_tridiagonal
from .dc import check_info

__all__ = ["tridiag_eig_ql"]

_stev = get_lapack_funcs("stev", dtype=np.float64)


def tridiag_eig_ql(
    d,
    e,
    *,
    want_vectors: bool = True,
    z0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of the symmetric tridiagonal (d, e).

    Parameters
    ----------
    d : array_like, shape (n,)
        Diagonal entries.
    e : array_like, shape (n-1,)
        Off-diagonal entries.
    want_vectors : bool
        Whether to compute eigenvectors.
    z0 : ndarray, optional
        Transformation the eigenvectors are premultiplied by (default:
        identity).  Pass the stage-1/2 back-transform to fuse the final
        product.

    Returns
    -------
    lam : ndarray, shape (n,)
        Eigenvalues in ascending order.
    z : ndarray (m, n) or None
        Eigenvectors (columns), premultiplied by ``z0`` if given.

    Raises
    ------
    ConvergenceError
        ``?stev`` reported ``info != 0`` (``phase="tridiag_solve"``).
    """
    d, e = check_tridiagonal(d, e)
    n = d.size
    if want_vectors and z0 is not None:
        z0 = np.asarray(z0, dtype=np.float64)
        if z0.ndim != 2 or z0.shape[1] != n:
            raise ShapeError(f"z0 must have {n} columns, got shape {z0.shape}")
    if n == 1:
        lam, z = d.copy(), np.ones((1, 1))
    else:
        lam, z, info = _stev(d, e, compute_v=int(want_vectors))
        check_info(info, "stev")
    if not want_vectors:
        return lam, None
    return lam, (z if z0 is None else z0 @ z)
