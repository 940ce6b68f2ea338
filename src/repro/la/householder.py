"""Householder reflector generation and application.

Conventions follow LAPACK ``larfg``/``larf``: a reflector is

    H = I - beta * v @ v.T,   v[0] = 1,

and for an input vector ``x`` the generated ``H`` satisfies
``H @ x = [alpha, 0, ..., 0]`` with ``|alpha| = ||x||_2``.  The sign of
``alpha`` is chosen opposite to ``x[0]`` so the computation of ``v`` never
cancels (backward stability).

These are BLAS2 kernels: they are used inside panel factorizations, which
the paper's performance model charges separately from the BLAS3 (GEMM)
stream.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericalBreakdownError, ShapeError

__all__ = [
    "make_reflector",
    "apply_reflector_left",
    "reflector_matrix",
]


def make_reflector(x) -> tuple[np.ndarray, float, float]:
    """Compute a Householder reflector annihilating ``x[1:]``.

    Parameters
    ----------
    x : array_like
        1-D vector of length >= 1.

    Returns
    -------
    v : numpy.ndarray
        Householder vector with ``v[0] == 1`` (same dtype as ``x``).
    beta : float
        Reflector coefficient; ``H = I - beta * outer(v, v)``.
    alpha : float
        The value ``(H @ x)[0]`` (signed norm of ``x``).

    Notes
    -----
    When ``x[1:]`` is already zero the reflector degenerates: ``beta = 0``
    and ``H = I`` (LAPACK convention), with ``alpha = x[0]``.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.size == 0:
        raise ShapeError(f"make_reflector requires a non-empty 1-D vector, got shape {x.shape}")
    dtype = x.dtype if x.dtype.kind == "f" else np.dtype(np.float64)
    x = x.astype(dtype, copy=False)

    v = x.copy()
    if x.size == 1:
        v[0] = dtype.type(1)
        return v, 0.0, float(x[0])

    # LAPACK larfg-style rescaling: for entries near the under/overflow
    # thresholds the squared norm loses (or destroys) all precision, so
    # compute the reflector on x / scale and restore alpha afterwards
    # (v and beta are scale-invariant).
    finfo = np.finfo(dtype)
    safe_lo = float(finfo.tiny) ** 0.5
    scale = float(np.max(np.abs(x)))
    if not np.isfinite(scale):
        # A NaN/Inf column cannot be rescaled into range (it used to send
        # the rescaling below into infinite recursion): report breakdown
        # so the resilience layer can retry the enclosing panel.
        raise NumericalBreakdownError(
            "non-finite column passed to Householder reflector",
            detector="nonfinite", site="make_reflector",
        )
    if scale != 0.0 and not (safe_lo < scale < 1.0 / safe_lo):
        v_s, beta, alpha_s = make_reflector(x / dtype.type(scale))
        return v_s, beta, alpha_s * scale

    sigma = float(np.dot(x[1:], x[1:]))
    x0 = float(x[0])
    if sigma == 0.0:
        v[0] = dtype.type(1)
        return v, 0.0, x0

    norm = np.hypot(x0, np.sqrt(sigma))
    # alpha gets the sign opposite to x0 so v0 = x0 - alpha never cancels.
    alpha = -norm if x0 >= 0 else norm
    v0 = x0 - alpha
    v[1:] /= dtype.type(v0)
    v[0] = dtype.type(1)
    beta = (alpha - x0) / alpha  # == -v0 / alpha, the LAPACK tau
    return v, float(beta), float(alpha)


def apply_reflector_left(a: np.ndarray, v: np.ndarray, beta: float) -> None:
    """In-place ``A <- H @ A`` with ``H = I - beta * v v^T`` (A modified).

    ``a`` must be 2-D with ``a.shape[0] == v.size``.  Rank-1 update done with
    one matvec and one outer-product subtraction (BLAS2).
    """
    if beta == 0.0:
        return
    if a.ndim != 2 or a.shape[0] != v.size:
        raise ShapeError(f"shape mismatch: A {a.shape} vs v ({v.size},)")
    w = v @ a  # v^T A
    # A -= beta * outer(v, w), in place to avoid a temporary the size of A.
    a -= np.multiply.outer(v * a.dtype.type(beta), w)


def reflector_matrix(v: np.ndarray, beta: float, *, n: int | None = None) -> np.ndarray:
    """Dense ``H = I - beta * v v^T``, optionally embedded in an n×n identity.

    For testing and small reference computations only — O(n^2) memory.
    If ``n`` is given and larger than ``v.size``, the reflector occupies the
    trailing ``v.size`` rows/columns of an identity (the usual embedding in
    factorization sweeps).
    """
    v = np.asarray(v)
    m = v.size
    if n is None:
        n = m
    if n < m:
        raise ShapeError(f"embedding size n={n} smaller than reflector size {m}")
    h = np.eye(n, dtype=v.dtype)
    h[n - m :, n - m :] -= beta * np.multiply.outer(v, v)
    return h
