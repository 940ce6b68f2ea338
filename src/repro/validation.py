"""Input validation helpers shared across the library.

The input contract for a symmetric matrix is one function,
:func:`as_symmetric_matrix`: shape, then finiteness (so a NaN is never
reported as asymmetry), then symmetry within ``sqrt(u) * max|A|`` for the
unit roundoff ``u`` of the caller's dtype, then an exact symmetrization.
The skew part moves eigenvalues only at second order, and the rule is
relative, so the verdict does not depend on the scale of ``A``.  Every
entry point runs it once; the drivers hand the layers they call a
:class:`Validated` array, which the layer front doors take unchecked.

Every rejection raises a structured
:class:`~repro.errors.ValidationError` subclass whose ``field`` attribute
names the check that failed (``"ndim"``, ``"empty"``, ``"square"``,
``"symmetry"``, ``"finite"``), so callers — and the serving layer's
admission control — can map a bad input to a client error without
parsing message strings.  The drivers expose the gates behind a
``check_input=`` knob defaulting on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricError, ShapeError

__all__ = [
    "as_matrix",
    "as_square_matrix",
    "as_symmetric_matrix",
    "Validated",
    "check_finite_matrix",
    "check_finite_vector",
    "check_tridiagonal",
    "check_positive_int",
    "check_blocksizes",
]


def as_matrix(a, *, name: str = "a", dtype=None) -> np.ndarray:
    """Return ``a`` as a 2-D contiguous ndarray, validating dimensionality.

    Parameters
    ----------
    a : array_like
        Input to coerce.
    name : str
        Argument name used in error messages.
    dtype : numpy dtype, optional
        If given, the result is converted to this dtype.
    """
    arr = np.asarray(a, dtype=dtype)
    if arr.ndim != 2:
        raise ShapeError(
            f"{name} must be 2-D, got ndim={arr.ndim}", field="ndim", name=name
        )
    if arr.size == 0:
        raise ShapeError(
            f"{name} must be non-empty, got shape {arr.shape}",
            field="empty", name=name,
        )
    return np.ascontiguousarray(arr)


def as_square_matrix(a, *, name: str = "a", dtype=None) -> np.ndarray:
    """Return ``a`` as a square 2-D ndarray or raise :class:`ShapeError`."""
    arr = as_matrix(a, name=name, dtype=dtype)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError(
            f"{name} must be square, got shape {arr.shape}",
            field="square", name=name,
        )
    return arr


def as_symmetric_matrix(
    a, *, name: str = "a", dtype=None, check: bool = True,
) -> np.ndarray:
    """Run the input contract (module docstring); return ``a`` exactly symmetric.

    The result is a new array whose strict upper triangle mirrors the lower
    one, as LAPACK's ``uplo='L'`` reads it: finite for every finite input,
    where ``(A + A^T) / 2`` can overflow, and bitwise equal to an exactly
    symmetric input.  Integer input becomes float64 (its ``u`` too), and
    ``dtype`` casts only after the checks.  ``check=False`` skips the
    finiteness and symmetry checks for input the caller already validated.
    """
    arr = as_square_matrix(a, name=name)
    if not np.issubdtype(arr.dtype, np.inexact):
        arr = arr.astype(np.float64)
    if check:
        hi, lo = arr.max(), arr.min()
        if not (np.isfinite(hi) and np.isfinite(lo)):  # max/min propagate NaN
            check_finite_matrix(arr, name=name)
        tol = (float(np.finfo(arr.dtype).eps) / 2) ** 0.5 * max(float(hi), -float(lo))
        skew = _max_skew(arr)
        if skew > tol:
            raise NotSymmetricError(f"{name} is not symmetric: max|A - A^T| = {skew:.3g}"
                                    f" > sqrt(u) * max|A| = {tol:.3g}", name=name)
    sym = arr.astype(arr.dtype if dtype is None else dtype)
    _mirror_lower(arr, sym)
    return sym


#: Tile edge of the blocked passes over ``A`` and ``A^T``.
_TILE = 128
#: The strict upper triangle of a tile.
_UPPER = np.tri(_TILE, k=-1, dtype=bool).T
_UPPER.flags.writeable = False


def _mirror_lower(arr: np.ndarray, sym: np.ndarray) -> None:
    """Write the transpose of ``arr``'s strict lower triangle over ``sym``'s
    strict upper one, one ``_TILE``-row block at a time.

    Each row block takes its diagonal tile under the one-tile mask and
    the rest of its rows as one transposed copy of the column block below
    it: bitwise what a single masked ``copyto`` from ``arr.T`` writes,
    without that copy's two ``n x n`` boolean masks.
    """
    for i0 in range(0, arr.shape[0], _TILE):
        i1 = i0 + _TILE
        diag = arr[i0:i1, i0:i1]
        d = diag.shape[0]
        np.copyto(sym[i0:i1, i0:i1], diag.T, where=_UPPER[:d, :d])
        sym[i0:i1, i1:] = arr[i1:, i0:i1].T


def _max_skew(arr: np.ndarray) -> float:
    """``max(A - A^T)`` of a finite square ``arr``, tile by tile.

    ``A - A^T`` is antisymmetric, so its max is its max ``|.|``; and
    ``fl(x - y) = -fl(y - x)``, so the tile of ``A - A^T`` mirroring a
    lower tile holds the lower tile's values negated.  Walking the lower
    tiles and taking each one's max and negated min gives the value
    ``float((arr - arr.T).max())`` would, bitwise, with one tile of
    scratch instead of two ``n x n`` temporaries.
    """
    n = arr.shape[0]
    t = min(n, _TILE)
    buf = np.empty((t, t), arr.dtype)
    skew = 0.0  # the diagonal's differences are 0
    with np.errstate(over="ignore"):
        for i0 in range(0, n, t):
            i1 = min(i0 + t, n)
            for j0 in range(0, i0 + 1, t):
                j1 = min(j0 + t, n)
                d = buf[: i1 - i0, : j1 - j0]
                np.subtract(arr[i0:i1, j0:j1], arr[j0:j1, i0:i1].T, out=d)
                skew = max(skew, d.max(), -d.min())
    return float(skew)


@dataclass(frozen=True, eq=False)
class Validated:
    """An array the drivers validated (or built exactly symmetric, like the
    stage-1 band): the layer front doors take ``.array`` unchecked."""

    array: np.ndarray


def check_finite_matrix(arr: np.ndarray, *, name: str = "a") -> np.ndarray:
    """Reject matrices containing NaN/Inf with a clear, early error.

    A non-finite entry anywhere in the input silently poisons every
    downstream GEMM, so the drivers gate on this up front (skippable with
    ``check_input=False`` for callers that already validated).  Raises
    :class:`repro.errors.ShapeError` (a :class:`ValidationError` with
    ``field="finite"``) naming the first offending position.
    """
    finite = np.isfinite(arr)
    if not finite.all():
        bad = np.argwhere(~finite)
        i, j = (int(x) for x in bad[0])
        kind = "nan" if np.isnan(arr[i, j]) else "inf"
        raise ShapeError(
            f"{name} contains {bad.shape[0]} non-finite entr"
            f"{'y' if bad.shape[0] == 1 else 'ies'} (first: {kind} at "
            f"[{i}, {j}]); pass check_input=False to skip this gate",
            field="finite", name=name,
        )
    return arr


def check_finite_vector(arr: np.ndarray, *, name: str = "d") -> np.ndarray:
    """Reject 1-D inputs containing NaN/Inf (``field="finite"``)."""
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argwhere(~finite)[0][0])
        kind = "nan" if np.isnan(arr[i]) else "inf"
        raise ShapeError(
            f"{name} contains a non-finite entry ({kind} at [{i}])",
            field="finite", name=name,
        )
    return arr


def check_tridiagonal(d, e, *, check_finite: bool = True):
    """Validate a symmetric tridiagonal ``(d, e)`` pair up front.

    ``d`` must be a non-empty 1-D diagonal, ``e`` its 1-D off-diagonal of
    length ``len(d) - 1``; both must be finite.  Returns the pair as
    float64 arrays.  Every tridiagonal routine (Sturm counts, bisection,
    QL, D&C, and inverse iteration's finiteness check behind its
    ``check_input=`` knob) gates on this before its LAPACK call or
    recurrence, so a NaN raises here instead of coming back as NaN
    eigenvalues or garbage counts.
    """
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ShapeError(
            f"d must be a non-empty 1-D array, got shape {d.shape}",
            field="ndim", name="d",
        )
    if e.ndim != 1 or e.shape[0] != max(d.shape[0] - 1, 0):
        raise ShapeError(
            f"e must have shape ({d.shape[0] - 1},) for d of shape "
            f"{d.shape}, got {e.shape}",
            field="square", name="e",
        )
    if check_finite:
        check_finite_vector(d, name="d")
        if e.size:
            check_finite_vector(e, name="e")
    return d, e


def check_positive_int(value: int, *, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ShapeError(
            f"{name} must be an int, got {type(value).__name__}",
            field="type", name=name,
        )
    if value <= 0:
        raise ShapeError(
            f"{name} must be positive, got {value}", field="positive", name=name
        )
    return int(value)


def check_blocksizes(n: int, b: int, nb: int | None = None) -> None:
    """Validate SBR block sizes: bandwidth ``b`` and big-block size ``nb``.

    ``nb`` (when given) must be a multiple of ``b``; both must not exceed
    ``n``.  Raises :class:`repro.errors.ConfigurationError` on violation.
    """
    from .errors import ConfigurationError

    check_positive_int(n, name="n")
    check_positive_int(b, name="b")
    if b > n:
        raise ConfigurationError(f"bandwidth b={b} exceeds matrix size n={n}")
    if nb is not None:
        check_positive_int(nb, name="nb")
        if nb % b != 0:
            raise ConfigurationError(f"nb={nb} must be a multiple of b={b}")
        if nb > n:
            raise ConfigurationError(f"nb={nb} exceeds matrix size n={n}")
