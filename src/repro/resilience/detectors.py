"""Failure detectors: cheap invariant monitors for the numerical hot path.

The solvers run at the edge of numerical safety (FP16 Tensor-Core GEMMs
whose accuracy is rescued only by error correction), so overflow, NaN
propagation, lost orthogonality, and norm explosion are first-class
failure modes.  This module provides the *measurements*; thresholds and
the decision to raise :class:`repro.errors.NumericalBreakdownError` live
in :class:`DetectorBank` (configured per-run by the resilience context).

Detector catalogue
------------------
``nonfinite``      NaN/Inf in what a retry unit wrote, or at a stage boundary
``magnitude``      max-abs overflow guard (catches pre-Inf blowup)
``norm_growth``    max-norm a band-reduction unit wrote vs. the phase baseline
``orthogonality``  panel-Q drift ``max|Q^T Q - I|`` of the WY factors
``symmetry``       drift ``max|A - A^T|`` of (sampled) trailing blocks
``residual``       sampled matvec residual ``|A x - Q B Q^T x| / (|A| |x|)``

The first three share one ``max|x|`` pass (:meth:`DetectorBank.check_output`)
over each array a retry unit wrote, once per unit rather than per GEMM
launch.

Cost
----
The output scans are O(rows·cols) and the orthogonality probe O(m·k²)
for an m×k panel, the order of the panel factorization itself; the
symmetry probe reads a fixed sample.  At the paper's sizes that is
negligible next to the O(m·n·k) GEMMs they guard, but at n ≤ 128 (b=8)
each of those is a few microseconds of NumPy call overhead, and the
guards of the default ``on_breakdown="escalate"`` context took a quarter
to a third of a ``syevd_2stage`` call.  So each healthy measurement ends
in NaN-propagating reductions, and the epsilon and sample grid a check
needs are computed once per process.  The probe's k×k defect and the
symmetry sample go through :func:`peak` (``|x|``, then its max).  The
healthy paths of the per-step checks run in
:class:`~repro.resilience.context.ResilienceContext`, which holds each
bound it has worked out: an output scan is ``max|x|`` against the
cached limit (an ``|x|`` pass and a reduction for a small array, a max
and a min reduction for a large one, so the band scan makes no n×n
temporary), and an orthogonality probe is the defect against the
cached :meth:`DetectorBank.panel_q_tol`.  Only a measurement past its
bound comes back here to be classified and raised.  A guarded panel
step makes about 14 NumPy calls in its guards: eight for the probe and
two per scanned array (docs/performance.md, "Guards").
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..errors import NumericalBreakdownError
from ..precision.modes import Precision

__all__ = [
    "DetectorConfig",
    "DetectorBank",
    "effective_eps",
    "has_nonfinite",
    "max_abs",
    "panel_orthogonality_defect",
    "symmetry_defect",
    "residual_probe",
]

_TINY = float(np.finfo(np.float64).tiny)
#: Largest finite float: ``x <= _MAX`` is false for NaN and ±Inf alike.
_MAX = float(np.finfo(np.float64).max)
_INF = float("inf")
_maximum = np.maximum.reduce
_dtype = attrgetter("dtype")


def has_nonfinite(arr: np.ndarray) -> bool:
    """Whether ``arr`` contains any NaN or Inf entry (full scan)."""
    return not bool(np.isfinite(arr).all())


def peak(arr: np.ndarray) -> float:
    """``max|arr|`` of a non-empty array, NaN when any entry is NaN:
    ``np.abs(arr).max()`` without ``ndarray.max``'s Python wrapper."""
    return float(_maximum(np.abs(arr), None))


def max_abs(arr: np.ndarray) -> float:
    """``max|arr|`` ignoring NaNs (0.0 for empty input)."""
    if arr.size == 0:
        return 0.0
    with np.errstate(invalid="ignore"):
        return float(np.nanmax(np.abs(arr))) if np.isfinite(arr).any() else float("inf")


def panel_orthogonality_defect(w: np.ndarray, y: np.ndarray) -> float:
    """Orthogonality drift ``max|Q^T Q - I|`` of a panel's WY factor.

    ``Q = (I - W Y^T)[:, :k] = E - W Y_1^T`` is the panel's orthonormal
    factor (``E`` the first ``k`` columns of the identity, ``Y_1`` and
    ``W_1`` the leading ``k`` rows), so

        Q^T Q - I = Y_1 (W^T W) Y_1^T - Y_1 W_1^T - W_1 Y_1^T.

    ``W^T W`` is the one panel-sized product, O(m k^2) like the panel
    factorization itself; the rest are k×k.  ``Q`` is never formed.  The
    maximum propagates NaN, so a NaN or Inf in ``W`` or ``Y_1`` gives an
    infinite defect.  Rows of ``Y`` below ``k`` do not enter ``Q``'s
    leading columns and are not read.
    """
    k = w.shape[1]
    if k == 0:
        return 0.0
    y1 = y[:k]
    p = y1 @ w[:k].T
    g = y1 @ (w.T @ w) @ y1.T
    g -= p
    g -= p.T
    defect = peak(g)
    return defect if defect == defect else float("inf")


@functools.lru_cache(maxsize=64)
def _sample_grid(n: int, sample: int) -> np.ndarray:
    """Flat (row-major) indices of :func:`symmetry_defect`'s sampled grid.

    One per trailing-block size: a ZY reduction probes one size per
    panel, so the bound covers a call of up to 64 sampled panels.
    """
    idx = np.linspace(0, n - 1, sample).astype(np.intp)
    flat = (idx[:, np.newaxis] * n + idx).ravel()
    flat.flags.writeable = False
    return flat


def symmetry_defect(a: np.ndarray, *, sample: int | None = 64) -> float:
    """Symmetry drift ``max|A - A^T|`` (optionally over a sampled grid).

    For large blocks a strided index sample keeps the probe O(sample^2)
    while still catching broad corruption; ``sample=None`` scans fully.
    NaN entries are ignored, as by :func:`max_abs` (the ``nonfinite``
    scan that precedes the probe owns them); the healthy path is one pass.
    """
    n = a.shape[0]
    if n < 2:
        return 0.0
    if sample is not None and n > sample:
        a = a.take(_sample_grid(n, sample)).reshape(sample, sample)
    d = a - a.T
    defect = peak(d)
    return defect if defect == defect else max_abs(d)


def residual_probe(
    a: np.ndarray,
    q: np.ndarray,
    band: np.ndarray,
    *,
    samples: int = 2,
    seed: int = 0,
) -> float:
    """Sampled band-reduction residual ``max_x |A x - Q B Q^T x| / (|A| |x|)``.

    Probes the factorization ``A ≈ Q B Q^T`` with a few random vectors —
    O(n^2) per sample instead of the O(n^3) dense residual — enough to
    catch a corrupted trailing update that left ``Q``/``B`` inconsistent
    with ``A``.
    """
    rng = np.random.default_rng(seed)
    n = a.shape[0]
    a64 = np.asarray(a, dtype=np.float64)
    q64 = np.asarray(q, dtype=np.float64)
    b64 = np.asarray(band, dtype=np.float64)
    norm_a = float(np.linalg.norm(a64, ord=np.inf)) or 1.0
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(n)
        lhs = a64 @ x
        rhs = q64 @ (b64 @ (q64.T @ x))
        denom = norm_a * float(np.linalg.norm(x)) or 1.0
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / denom)
    return worst


def effective_eps(precision: Precision, *arrays: np.ndarray) -> float:
    """Largest machine epsilon among the compute precision and the
    storage dtypes of ``arrays``.

    Escalated retries compute in wider arithmetic but still read/write
    the run's storage dtype, so drift tolerances must floor at the
    storage eps — an FP64 retry of an FP32 run cannot beat FP32 accuracy.
    """
    return _effective_eps(precision, *map(_dtype, arrays))


@functools.cache
def _effective_eps(precision: Precision, *dtypes: np.dtype) -> float:
    eps = precision.machine_eps
    for dtype in dtypes:
        if dtype.kind == "f":
            eps = max(eps, float(np.finfo(dtype).eps))
    return eps


@dataclass
class DetectorConfig:
    """Which detectors run, and how strict they are.

    Thresholds for the drift detectors scale with the active precision's
    machine epsilon (``eps_factor * k * eps``) so the same config is
    usable from FP16 through FP64 without spurious trips.
    """

    nonfinite: bool = True
    magnitude: bool = True
    magnitude_limit: float = 1e25
    orthogonality: bool = True
    orthogonality_eps_factor: float = 200.0
    norm_growth: bool = True
    norm_growth_factor: float = 1e4
    symmetry: bool = True
    symmetry_eps_factor: float = 500.0
    symmetry_sample: int = 64
    residual: bool = False
    residual_eps_factor: float = 1e4

    def orthogonality_tol(self, k: int, eps: float) -> float:
        return self.orthogonality_eps_factor * max(k, 1) * eps

    def symmetry_tol(self, norm: float, eps: float) -> float:
        return self.symmetry_eps_factor * max(norm, 1.0) * eps

    def residual_tol(self, eps: float) -> float:
        return self.residual_eps_factor * eps


class DetectorBank:
    """Runs the configured detectors and raises on violation.

    The bank is stateless apart from its config; the caller (the
    resilience context) supplies phase/panel/site context so the raised
    :class:`NumericalBreakdownError` is actionable.
    """

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config if config is not None else DetectorConfig()

    def output_limit(self, baseline: float | None = None) -> float:
        """The bound a healthy output's ``max|x|`` stays within.

        The overflow guard and, given ``baseline``, the norm-growth bound,
        capped at the largest finite float so that ``mx <= limit`` is the
        whole healthy test: false for NaN and Inf too.
        """
        cfg = self.config
        limit = cfg.magnitude_limit if cfg.magnitude else _MAX
        if baseline is not None and cfg.norm_growth:
            # Floored only so that a zero matrix, whose outputs are zero,
            # still passes: the bound scales with max|A| down to fp64's
            # smallest normal number.
            limit = min(limit, cfg.norm_growth_factor * max(baseline, _TINY))
        return min(limit, _MAX)

    def panel_q_tol(self, precision: Precision, k: int, *dtypes) -> float:
        """The bound :meth:`check_panel_q` holds a width-``k`` panel's
        defect to, for ``W``/``Y`` of ``dtypes``; inf when it is off."""
        if not self.config.orthogonality:
            return _INF
        return self.config.orthogonality_tol(k, _effective_eps(precision, *dtypes))

    # Each check raises NumericalBreakdownError on a violation.
    def check_output(
        self,
        arr: np.ndarray,
        *,
        site: str,
        phase: str | None,
        panel: int | None,
        precision: Precision,
        baseline: float | None = None,
    ) -> float:
        """NaN/Inf scan, magnitude guard and (given ``baseline``) norm growth.

        One ``max|arr|`` pass serves all three: it is NaN or Inf when any
        entry is, so only a maximum within every enabled limit clears the
        output.  Anything else is classified in that order.  Returns the
        maximum, NaN entries ignored as by :func:`max_abs`.
        """
        cfg = self.config
        arr = np.asarray(arr)
        if arr.size == 0:
            return 0.0
        mx = peak(arr)
        if mx <= self.output_limit(baseline):
            return mx
        if cfg.nonfinite and not mx < np.inf:
            raise NumericalBreakdownError(
                "non-finite entries in a unit's output",
                phase=phase, panel=panel, detector="nonfinite", site=site,
                precision=precision.value,
            )
        if mx != mx:
            mx = max_abs(arr)  # the disabled NaN detector: judge the rest
        if cfg.magnitude and mx > cfg.magnitude_limit:
            raise NumericalBreakdownError(
                "output magnitude exceeds overflow guard",
                phase=phase, panel=panel, detector="magnitude", site=site,
                value=mx, threshold=cfg.magnitude_limit,
                precision=precision.value,
            )
        if baseline is not None and cfg.norm_growth:
            growth = cfg.norm_growth_factor * max(baseline, _TINY)
            if not mx <= growth:
                raise NumericalBreakdownError(
                    "trailing-matrix norm growth exceeds baseline bound",
                    phase=phase, panel=panel, detector="norm_growth", site=site,
                    value=mx, threshold=growth, precision=precision.value,
                )
        return mx

    def check_panel_q(
        self,
        w: np.ndarray,
        y: np.ndarray,
        *,
        phase: str | None,
        panel: int | None,
        precision: Precision,
    ) -> None:
        """Panel-Q orthogonality drift ``max|Q^T Q - I|``."""
        tol = self.panel_q_tol(precision, w.shape[1], w.dtype, y.dtype)
        if tol == _INF:
            return
        defect = panel_orthogonality_defect(w, y)
        if not defect <= tol:
            raise NumericalBreakdownError(
                "panel Q lost orthogonality",
                phase=phase, panel=panel, detector="orthogonality",
                value=defect, threshold=tol, precision=precision.value,
            )

    def check_symmetry(
        self,
        a: np.ndarray,
        *,
        phase: str | None,
        panel: int | None,
        precision: Precision,
        norm: float | None = None,
    ) -> None:
        """Symmetry drift of a trailing block (sampled)."""
        if not self.config.symmetry:
            return
        defect = symmetry_defect(a, sample=self.config.symmetry_sample)
        tol = self.config.symmetry_tol(
            norm if norm is not None else max_abs(a), effective_eps(precision, a)
        )
        if not defect <= tol:
            raise NumericalBreakdownError(
                "symmetry drift in trailing matrix",
                phase=phase, panel=panel, detector="symmetry",
                value=defect, threshold=tol, precision=precision.value,
            )

    def check_residual(
        self,
        a: np.ndarray,
        q: np.ndarray,
        band: np.ndarray,
        *,
        phase: str | None,
        precision: Precision,
        panel: int | None = None,
    ) -> None:
        """Sampled factorization-residual probe at a stage boundary."""
        if not self.config.residual:
            return
        res = residual_probe(a, q, band)
        tol = self.config.residual_tol(effective_eps(precision, band))
        if not np.isfinite(res) or res > tol:
            raise NumericalBreakdownError(
                "band-reduction residual probe failed",
                phase=phase, panel=panel, detector="residual",
                value=float(res), threshold=tol, precision=precision.value,
            )
