"""Bulge chasing: symmetric band → tridiagonal (stage 2, paper §3.1).

The paper builds stage 1 only: its EVD case study hands the band matrix
to MAGMA's host stages for the chase and the tridiagonal solve.
:func:`bulge_chase` does the same with LAPACK: the band goes to
``dsbtrd`` (``ssbtrd`` for float32 input), the Givens-rotation chase of
the Schwarz (1968) family that ``?sbevd`` runs before its tridiagonal
solver.

scipy ships no f2py wrapper for ``?sbtrd``, so the routine is taken from
:mod:`scipy.linalg.cython_lapack`'s exported C function table through
:mod:`ctypes`, once per precision, after checking that the capsule's
signature is the one this module calls.

The blocked compact-WY wavefront chase this replaced survives only as a
*modeled* launch stream (:func:`repro.gemm.symbolic.trace_bulge_wavefront`
and :func:`repro.metrics.bulge_wavefront_flops`) for the paper's figures
and the live progress plan; nothing numeric runs it.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np
from scipy.linalg import cython_lapack

from ..errors import ConfigurationError, NumericalBreakdownError, ShapeError
from ..validation import Validated, as_square_matrix, as_symmetric_matrix

__all__ = ["bulge_chase"]

#: C signature of ``?sbtrd(vect, uplo, n, kd, ab, ldab, d, e, q, ldq,
#: work, info)`` in scipy's capsule table; ``{t}`` is the real type.
_SBTRD_SIGNATURE = (
    "void (char *, char *, int *, int *, {t} *, int *, {t} *, {t} *, "
    "{t} *, int *, {t} *, int *)"
)
_CYTHON_REAL = {"d": "__pyx_t_5scipy_6linalg_13cython_lapack_d",
                "s": "__pyx_t_5scipy_6linalg_13cython_lapack_s"}
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def bulge_chase(
    a,
    b: int,
    *,
    want_q: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Reduce a symmetric band matrix to tridiagonal form (LAPACK ``?sbtrd``).

    Parameters
    ----------
    a : array_like, (n, n) symmetric
        Band matrix with semi-bandwidth ``b`` (entries outside the band
        are assumed zero and ignored).  Checked as in
        :func:`repro.sbr.wy.sbr_wy`.
    b : int
        Semi-bandwidth of ``a``; ``b == 1`` returns the tridiagonal
        entries directly.
    want_q : bool
        Accumulate the orthogonal transform ``Q2`` with ``A ≈ Q2 T Q2^T``.

    Returns
    -------
    d : ndarray, shape (n,)
        Diagonal of the tridiagonal matrix ``T``.
    e : ndarray, shape (n-1,)
        Sub-diagonal of ``T``.
    q : ndarray (n, n) or None
        The accumulated transform (``None`` if not requested).

    Raises
    ------
    NumericalBreakdownError
        A non-finite band entry or output (``detector="nonfinite"``), or
        ``?sbtrd`` reported ``info != 0`` (``detector="lapack"``).
    ConfigurationError
        scipy's ``?sbtrd`` capsule does not have the expected signature.
    """
    if isinstance(a, Validated):
        a = a.array
    else:
        _check_finite(as_square_matrix(a))  # a breakdown, not a bad request
        a = as_symmetric_matrix(a)
        if b < 1:
            raise ShapeError(f"bandwidth must be >= 1, got {b}")
    n = a.shape[0]
    dtype = a.dtype if a.dtype in (np.float32, np.float64) else np.dtype(np.float64)
    kd = min(b, n - 1)
    if kd <= 1:
        d = np.diagonal(a).astype(dtype)
        e = np.diagonal(a, offset=-1).astype(dtype)
        q = np.eye(n, dtype=dtype) if want_q else None
    else:
        # Lower band storage ab[i - j, j] = A[i, j], packed fresh on every
        # call: ?sbtrd overwrites it.
        ab = np.zeros((kd + 1, n), dtype=dtype, order="F")
        for k in range(kd + 1):
            ab[k, : n - k] = np.diagonal(a, offset=-k)
        d, e, q, info = _sbtrd(ab, want_q)
        if info != 0:
            raise NumericalBreakdownError(
                f"LAPACK ?sbtrd failed with info={info}",
                detector="lapack", site="bulge_chase",
            )
    _check_finite(d, e)
    return d, e, q


def _check_finite(*arrays) -> None:
    if not all(np.isfinite(x).all() for x in arrays):
        raise NumericalBreakdownError(
            "non-finite entries in the bulge chase",
            detector="nonfinite", site="bulge_chase",
        )


@functools.cache
def _sbtrd_routine(prefix: str):
    """``?sbtrd`` from scipy's cython_lapack capsule table, signature-checked."""
    capsule = cython_lapack.__pyx_capi__[f"{prefix}sbtrd"]
    name = _capsule_name(capsule)
    want = _SBTRD_SIGNATURE.format(t=_CYTHON_REAL[prefix])
    if name is None or name.decode() != want:
        raise ConfigurationError(
            f"scipy.linalg.cython_lapack {prefix}sbtrd has signature "
            f"{name!r}, expected {want!r}"
        )
    return ctypes.CFUNCTYPE(None, ctypes.c_char_p, ctypes.c_char_p,
                            *[ctypes.c_void_p] * 10)(_capsule_pointer(capsule, name))


def _sbtrd(ab: np.ndarray, want_q: bool):
    """Run ``?sbtrd`` on the Fortran-ordered lower band ``ab`` (overwritten).

    Returns ``(d, e, q, info)``: the tridiagonal, the n×n transform
    (Fortran-ordered; ``None`` unless ``want_q``) and LAPACK's ``info``.
    Every buffer handed to LAPACK is allocated here at the size the
    routine expects.
    """
    kd1, n = ab.shape
    if not ab.flags.f_contiguous or ab.dtype not in (np.float32, np.float64):
        raise ValueError("ab must be a Fortran-ordered float32/float64 band")
    d = np.empty(n, dtype=ab.dtype)
    e = np.empty(n - 1, dtype=ab.dtype)
    q = np.empty((n, n) if want_q else (1, 1), dtype=ab.dtype, order="F")
    work = np.empty(n, dtype=ab.dtype)
    # n, kd, ldab, ldq, info — the routine's integer arguments, by address.
    ints = np.array([n, kd1 - 1, kd1, q.shape[0], 0], dtype=np.intc)
    n_p, kd_p, ldab_p, ldq_p, info_p = (
        ints.ctypes.data + i * ints.itemsize for i in range(5))
    _sbtrd_routine("s" if ab.dtype == np.float32 else "d")(
        b"V" if want_q else b"N", b"L", n_p, kd_p, ab.ctypes.data, ldab_p,
        d.ctypes.data, e.ctypes.data, q.ctypes.data, ldq_p,
        work.ctypes.data, info_p,
    )
    return d, e, (q if want_q else None), int(ints[4])
