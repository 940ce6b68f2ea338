"""Inverse iteration for eigenvectors of symmetric tridiagonal matrices.

Complements bisection (:mod:`repro.eig.sturm`): bisection produces
selected eigen*values*; inverse iteration recovers their eigen*vectors*.
Both are LAPACK's: ``dstein`` runs inverse iteration on the factored
shifted tridiagonal, perturbing shifts and reorthogonalizing vectors
inside clusters of eigenvalues closer than ``1e-3 * ||T||``.  Together
they form the "subset of eigenpairs" solver style the paper's related
work discusses.

``?stein`` does not scale its input, so ``(d, e)`` and the eigenvalues
are first scaled by :func:`~repro.eig.sturm.scale_to_safe_range`.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..errors import ShapeError
from ..validation import check_finite_vector, check_tridiagonal
from .dc import check_info
from .sturm import scale_to_safe_range

__all__ = ["tridiag_inverse_iteration"]

_stein = get_lapack_funcs("stein", dtype=np.float64)


def tridiag_inverse_iteration(
    d,
    e,
    eigenvalues,
    *,
    check_input: bool = True,
) -> np.ndarray:
    """Eigenvectors of tridiag(d, e) for precomputed eigenvalues (``?stein``).

    Parameters
    ----------
    d, e : array_like
        Tridiagonal entries (diagonal, off-diagonal).
    eigenvalues : array_like
        Converged eigenvalues (e.g. from :func:`repro.eig.eigvals_bisect`),
        in any order.
    check_input : bool
        Validate ``(d, e)`` and ``eigenvalues`` for finiteness up front
        with a structured :class:`~repro.errors.ValidationError`; default
        on.  Shapes are checked either way.

    Returns
    -------
    v : ndarray, shape (n, k)
        Orthonormal eigenvector columns aligned with ``eigenvalues``.

    Raises
    ------
    ConvergenceError
        ``?stein`` reported ``info != 0`` (``phase="inverse_iteration"``).
    """
    d, e = check_tridiagonal(d, e, check_finite=check_input)
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1:
        raise ShapeError(f"eigenvalues must be 1-D, got shape {lam.shape}")
    if check_input and lam.size:
        check_finite_vector(lam, name="eigenvalues")
    n, k = d.size, lam.size
    if k == 0:
        return np.zeros((n, 0))
    d, e, s = scale_to_safe_range(d, e)
    # ?stein wants ascending eigenvalues within one split block; the whole
    # matrix is passed as that block.
    order = np.argsort(lam, kind="stable")
    iblock = np.ones(n, dtype=np.int32)
    isplit = np.zeros(n, dtype=np.int32)
    isplit[0] = n
    z, info = _stein(d, e, lam[order] * s, iblock, isplit)
    check_info(info, "stein", phase="inverse_iteration")
    v = np.empty((n, k))
    v[:, order] = z
    return v
