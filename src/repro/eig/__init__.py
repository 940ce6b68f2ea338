"""Second-stage eigensolvers and end-to-end EVD drivers.

The paper offloads everything after band reduction to MAGMA (bulge chasing
+ divide & conquer on the CPU).  This package hands those stages to
LAPACK behind two layer functions:

- :mod:`~repro.eig.bulge` — reduction of a symmetric band matrix to
  tridiagonal form (stage 2 of two-stage tridiagonalization) by LAPACK
  ``?sbtrd``.
- :mod:`~repro.eig.dc` — the symmetric tridiagonal eigenproblem by
  LAPACK ``sterf`` (eigenvalues only) or ``stevd`` (divide & conquer,
  with eigenvectors).
- :mod:`~repro.eig.qliter` — implicit QL/QR iteration (LAPACK
  ``?stev``), the tridiagonal tests' reference.
- :mod:`~repro.eig.sturm` — Sturm-sequence eigenvalue counting and
  bisection (LAPACK ``?stebz``; selected eigenvalues, verification).
- :mod:`~repro.eig.inverse_iteration` — eigenvectors for selected
  eigenvalues (LAPACK ``?stein``).
- :mod:`~repro.eig.tridiag_direct` — classic one-stage Householder
  tridiagonalization (LAPACK ``?sytrd``; the 50%-BLAS2 baseline of
  paper §3.1).
- :mod:`~repro.eig.driver` — ``syevd_2stage`` (SBR → band to tridiagonal →
  tridiagonal eigensolver → back-transformation) and ``syevd_1stage``.
"""

from .bulge import bulge_chase
from .qliter import tridiag_eig_ql
from .dc import tridiag_eig_dc
from .sturm import sturm_count, eigvals_bisect
from .inverse_iteration import tridiag_inverse_iteration
from .tridiag_direct import householder_tridiagonalize
from .driver import EvdResult, syevd_2stage, syevd_1stage, syevd_selected

__all__ = [
    "bulge_chase",
    "tridiag_eig_ql",
    "tridiag_eig_dc",
    "sturm_count",
    "eigvals_bisect",
    "tridiag_inverse_iteration",
    "householder_tridiagonalize",
    "EvdResult",
    "syevd_2stage",
    "syevd_1stage",
    "syevd_selected",
]
