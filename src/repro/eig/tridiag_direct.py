"""Classic one-stage Householder tridiagonalization (LAPACK ``?sytrd``).

The baseline the paper's §3.1 argues against: each column's reflector is
applied two-sidedly as a symmetric rank-2 update,

    p = beta * A v,
    w = p - (beta/2) (p^T v) v,
    A <- A - v w^T - w v^T,

which is irreducibly BLAS2 for ~50% of the flops (the ``A v`` products
cannot be blocked away) — the paper observes this unblocked work
dominating >90% of MAGMA's ``ssytrd`` time.  Here LAPACK ``?sytrd``
runs it (blocked ``?latrd`` + ``?syr2k``), and ``?orgqr`` forms ``Q``.
Used as a correctness reference, by ``syevd_1stage`` and by the serving
layer's coalesced small-matrix path.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..validation import Validated, as_symmetric_matrix

__all__ = ["householder_tridiagonalize"]


def householder_tridiagonalize(
    a,
    *,
    want_q: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Reduce a symmetric matrix directly to tridiagonal form.

    Runs in the input's floating dtype (``ssytrd`` for float32).  ``a`` is
    checked as in :func:`repro.sbr.wy.sbr_wy`.

    Returns
    -------
    d : ndarray, shape (n,)
        Diagonal of ``T``.
    e : ndarray, shape (n-1,)
        Sub-diagonal of ``T``.
    q : ndarray (n, n) or None
        Orthogonal transform with ``A ≈ Q T Q^T``.
    """
    a = a.array if isinstance(a, Validated) else as_symmetric_matrix(a)
    n = a.shape[0]
    sytrd, sytrd_lwork, orgqr = get_lapack_funcs(
        ("sytrd", "sytrd_lwork", "orgqr"), (a,))
    lwork, _ = sytrd_lwork(n, lower=1)
    c, d, e, tau, _ = sytrd(a, lower=1, lwork=int(lwork))
    if not want_q:
        return d, e, None
    # ?orgtr for lower storage: the reflectors sit below the subdiagonal
    # and Q's first row and column are those of the identity.
    q = np.eye(n, dtype=c.dtype)
    if n > 1:
        q[1:, 1:], _, _ = orgqr(c[1:, :-1], tau)
    return d, e, q
