"""Online ABFT: checksum-encoded verification of the live GEMM stream.

Huang & Abraham (1984) encode a matrix product with row/column checksum
vectors: for ``C = A @ B``, the identities ``C·e = A·(B·e)`` and
``eᵀ·C = (eᵀ·A)·B`` hold up to rounding, and a single corrupted element
``C[i, j]`` breaks exactly row sum ``i`` and column sum ``j`` — the
mismatch intersection *localizes* the fault.  :mod:`repro.ckpt` has used
this at rest since PR 4 (checkpoint payload signatures); this module
moves the same encoding *in flight*: every launch of a guarded
:class:`~repro.gemm.engine.GemmEngine` is verified right after it
returns, while the cost of the corruption is still one launch, not a
poisoned eigendecomposition.

The detect → locate → correct → recompute → escalate ladder:

1. **detect** — compare the float64 row/column sums of the output
   against references computed from the operands, with a dtype-aware
   tolerance floored at :func:`~repro.resilience.detectors.effective_eps`
   and scaled by the |A|·|B| checksum magnitudes (so cancellation-heavy
   products don't false-positive).
2. **locate** — exactly one bad row and one bad column ⇒ a single
   corrupted element at their intersection.
3. **correct** (``abft="correct"``) — deterministically replay the
   launch through the raw engine and patch the corrupted element in
   place.  The replay, not the checksum delta, supplies the value: the
   float64 delta carries the reference reduction's own rounding and
   would break the bitwise-replay guarantee.
4. **recompute** — multi-element damage (or a patch that fails
   re-verification) replaces the whole output with the replay.
5. **escalate** — damage that survives recomputation raises
   :class:`~repro.errors.SdcError`, a
   :class:`~repro.errors.NumericalBreakdownError` subclass the PR-2
   precision-escalation ladder retries like any other breakdown.

Large batched launches use a Freivalds-style randomized probe instead of
full checksums (one ±1 projection per stack, seeded deterministically
per site/call so replays agree); a probe hit falls back to the full
checksum pass for localization.

In ``abft="detect"`` mode step 1 raises immediately — the mode for
canaries and CI, where you want the fault surfaced, not absorbed.
``abft="off"`` costs one attribute read and a ``None`` check per launch
(tracemalloc-asserted in the tests).

The checkpoint-at-rest helpers (``abft_signature``/``verify_abft``)
live here too: :mod:`repro.ckpt` verifies its stored matrices with the
same sum-vector/CRC encoding.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import CheckpointCorruptionError, ConfigurationError, SdcError
from ..obs import spans as _obs
from .detectors import effective_eps

__all__ = [
    "ABFT_MODES",
    "AbftPolicy",
    "AbftEvent",
    "AbftReport",
    "AbftChecker",
    "Syr2kPre",
    "sum_vectors",
    "checksum_crc",
    "abft_signature",
    "verify_abft",
]

#: Valid values of the driver-level ``abft=`` knob.
ABFT_MODES = ("off", "detect", "correct")

#: Events kept verbatim in an :class:`AbftReport` (counters are exact).
_MAX_EVENTS = 64


# ---------------------------------------------------------------------------
# Shared checksum helpers (in-flight verification + at-rest signatures)
# ---------------------------------------------------------------------------

def sum_vectors(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 row/column sum vectors of an array (1-D: one axis only).

    2-D and higher: leading axes are collapsed so "row" is axis ``-2``
    and "col" axis ``-1``.  1-D: the flat vector itself plus its total.
    """
    a64 = np.asarray(arr, dtype=np.float64)
    if a64.ndim >= 2:
        a64 = a64.reshape(-1, a64.shape[-1])
        return a64.sum(axis=1), a64.sum(axis=0)
    flat = a64.ravel()
    return flat, np.asarray([flat.sum()])


def checksum_crc(vec: np.ndarray) -> int:
    """CRC32 of a checksum vector's float64 bytes (compact signature)."""
    return zlib.crc32(np.ascontiguousarray(vec, dtype=np.float64).tobytes()) & 0xFFFFFFFF


def abft_signature(arr: np.ndarray) -> dict:
    """Compact ABFT signature of one array (JSON-serializable).

    The full checksum vectors are compressed to their CRC32s; the grand
    total is kept exactly (as a ``float.hex`` string) so a signature
    mismatch can report the magnitude of the disagreement.
    """
    arr = np.asarray(arr)
    rows, cols = sum_vectors(arr)
    total = float(np.asarray(arr, dtype=np.float64).sum())
    return {
        "shape": list(arr.shape),
        "dtype": str(arr.dtype),
        "row_crc": checksum_crc(rows),
        "col_crc": checksum_crc(cols),
        "total": total.hex(),
    }


def _storage_eps(dtype) -> float:
    """Effective epsilon of a storage dtype (floored at float64 eps)."""
    eps = float(np.finfo(np.float64).eps)
    dt = np.dtype(dtype)
    if dt.kind == "f":
        eps = max(eps, float(np.finfo(dt).eps))
    return eps


def verify_abft(name: str, arr: np.ndarray, sig: dict, *,
                path: str | None = None) -> None:
    """Check a loaded array against its stored signature.

    The row/column CRCs are compared exactly — the stored array is
    bit-identical to the saved one when nothing corrupted it, and NumPy
    summation over the same bytes within one process is deterministic,
    so any CRC mismatch is real corruption.  The *grand total* is
    compared with a tolerance floored at the storage dtype's effective
    epsilon (scaled by the payload's 1-norm): the float64 re-reduction
    that produces it is the one quantity whose exact bit pattern may
    legally differ (summation-order changes across NumPy builds), and an
    exact compare false-positives on FP16 checkpoints of large
    ill-scaled matrices where the total carries ``~n·eps₁₆·‖A‖₁`` of
    benign noise.

    Raises
    ------
    CheckpointCorruptionError
        With ``field`` naming the array and the failing check
        (``"abft:<name>.shape"`` / ``.dtype`` / ``.row`` / ``.col`` /
        ``.total``), so the caller sees *where* the checkpoint lied.
    """
    arr = np.asarray(arr)
    if list(arr.shape) != list(sig.get("shape", [])):
        raise CheckpointCorruptionError(
            f"array {name!r} has shape {list(arr.shape)}, "
            f"checkpoint recorded {sig.get('shape')}",
            path=path, field=f"abft:{name}.shape", reason="abft",
        )
    if str(arr.dtype) != sig.get("dtype"):
        raise CheckpointCorruptionError(
            f"array {name!r} has dtype {arr.dtype}, "
            f"checkpoint recorded {sig.get('dtype')}",
            path=path, field=f"abft:{name}.dtype", reason="abft",
        )
    rows, cols = sum_vectors(arr)
    if checksum_crc(rows) != sig.get("row_crc"):
        raise CheckpointCorruptionError(
            f"array {name!r} failed its ABFT row-checksum "
            f"(silent corruption in the stored payload)",
            path=path, field=f"abft:{name}.row", reason="abft",
        )
    if checksum_crc(cols) != sig.get("col_crc"):
        raise CheckpointCorruptionError(
            f"array {name!r} failed its ABFT column-checksum",
            path=path, field=f"abft:{name}.col", reason="abft",
        )
    stored = sig.get("total")
    if stored is not None:
        a64 = np.asarray(arr, dtype=np.float64)
        total = float(a64.sum())
        ref = float.fromhex(stored)
        tol = _storage_eps(arr.dtype) * max(1.0, float(np.abs(a64).sum()))
        if not abs(total - ref) <= tol:
            raise CheckpointCorruptionError(
                f"array {name!r} grand total {total!r} disagrees with the "
                f"checkpointed total {ref!r} beyond the {arr.dtype} "
                f"effective-eps tolerance {tol:.3e}",
                path=path, field=f"abft:{name}.total", reason="abft",
            )


# ---------------------------------------------------------------------------
# Policy / report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbftPolicy:
    """Configuration of the in-flight verification layer.

    Parameters
    ----------
    mode : {"detect", "correct"}
        ``detect`` raises :class:`~repro.errors.SdcError` on the first
        checksum mismatch; ``correct`` patches single-element damage in
        place (value sourced from a deterministic launch replay),
        recomputes on multi-element damage, and raises only when damage
        survives recomputation.  (``"off"`` is expressed by not
        constructing a checker at all.)
    eps_factor : float
        Multiplier on the rounding-error bound that separates engine
        rounding from corruption.  The per-entry tolerance is
        ``eps_factor · effective_eps · (|A|·|B|)``-scale, so it tracks
        both the precision policy and the operand magnitudes.
    freivalds_batch : int
        Batched launches with at least this many stack entries are
        verified by the randomized Freivalds probe instead of full
        row+column checksums (half the reduction passes); a probe hit
        falls back to the full pass for localization.  ``0`` disables
        the probe.
    freivalds_seed : int
        Base seed of the probe's ±1 projection vectors.  Combined with
        the site name and call index, so each launch's probe is
        independently deterministic and replays agree.
    max_recomputes : int
        Full-launch replays allowed per launch before the damage is
        declared persistent and escalated.
    """

    mode: str = "detect"
    eps_factor: float = 64.0
    freivalds_batch: int = 4
    freivalds_seed: int = 0
    max_recomputes: int = 2

    def __post_init__(self) -> None:
        if self.mode not in ("detect", "correct"):
            raise ConfigurationError(
                f"abft mode must be 'detect' or 'correct', got {self.mode!r}"
            )
        if self.eps_factor <= 0.0:
            raise ConfigurationError(
                f"eps_factor must be positive, got {self.eps_factor}"
            )

    @staticmethod
    def from_knob(abft) -> "AbftPolicy | None":
        """Resolve the driver-level ``abft=`` knob to a policy (or None).

        Accepts ``None``/``"off"`` (→ None), a mode string, or an
        :class:`AbftPolicy` passed through unchanged.
        """
        if abft is None or abft == "off" or abft is False:
            return None
        if isinstance(abft, AbftPolicy):
            return abft
        if isinstance(abft, str):
            if abft not in ABFT_MODES:
                raise ConfigurationError(
                    f"abft must be one of {ABFT_MODES}, got {abft!r}"
                )
            return AbftPolicy(mode=abft)
        raise ConfigurationError(
            f"abft must be a mode string or AbftPolicy, got {type(abft).__name__}"
        )


@dataclass
class AbftEvent:
    """One SDC that the checker saw (detected / corrected / recomputed)."""

    site: str
    call_index: int
    op: str
    action: str  #: "corrected", "recomputed", or "raised"
    phase: "str | None" = None
    row: "int | None" = None
    col: "int | None" = None
    magnitude: "float | None" = None

    def to_dict(self) -> dict:
        return {
            "site": self.site, "call_index": self.call_index, "op": self.op,
            "action": self.action, "phase": self.phase,
            "row": self.row, "col": self.col, "magnitude": self.magnitude,
        }


@dataclass
class AbftReport:
    """Per-run accounting of the in-flight verification layer.

    Attached to :class:`~repro.eig.driver.EvdResult` as ``abft_report``
    and serialized as the manifest's ``abft`` line.
    """

    mode: str = "detect"
    verified: int = 0      #: launches checked with full row+column sums
    probed: int = 0        #: launches checked with the Freivalds probe
    detected: int = 0      #: launches on which a mismatch was found
    corrected: int = 0     #: single elements patched in place
    recomputed: int = 0    #: full-launch replays substituted
    raised: int = 0        #: SdcErrors escalated to the retry ladder
    verify_seconds: float = 0.0
    by_phase: dict = field(default_factory=dict)
    events: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.detected == 0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "verified": self.verified,
            "probed": self.probed,
            "detected": self.detected,
            "corrected": self.corrected,
            "recomputed": self.recomputed,
            "raised": self.raised,
            "verify_seconds": self.verify_seconds,
            "by_phase": {k: dict(v) for k, v in self.by_phase.items()},
            "events": [e.to_dict() if isinstance(e, AbftEvent) else dict(e)
                       for e in self.events],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AbftReport":
        rep = cls(mode=d.get("mode", "detect"))
        for key in ("verified", "probed", "detected", "corrected",
                    "recomputed", "raised"):
            setattr(rep, key, int(d.get(key, 0)))
        rep.verify_seconds = float(d.get("verify_seconds", 0.0))
        rep.by_phase = {k: dict(v) for k, v in (d.get("by_phase") or {}).items()}
        rep.events = [dict(e) for e in (d.get("events") or [])]
        return rep

    def summary(self) -> str:
        bits = [
            f"abft[{self.mode}]: {self.verified + self.probed} launches verified"
            f" ({self.probed} probed) in {self.verify_seconds * 1e3:.1f} ms"
        ]
        if self.detected:
            bits.append(
                f"{self.detected} SDC detected, {self.corrected} corrected, "
                f"{self.recomputed} recomputed, {self.raised} escalated"
            )
        else:
            bits.append("no SDC")
        return "; ".join(bits)


@dataclass
class Syr2kPre:
    """Pre-launch checksums of a syr2k accumulator (``beta != 0`` fusion).

    The fused update ``beta·C + alpha·(Y Zᵀ + Z Yᵀ)`` overwrites ``C``,
    so its contribution to the output checksums must be captured before
    the launch.  Sums only — the full snapshot needed for a correct-mode
    replay is taken separately by the launch guard
    (:meth:`~repro.resilience.ResilienceContext.after_launch`).
    """

    row: np.ndarray
    col: np.ndarray
    absrow: np.ndarray
    abscol: np.ndarray

    @staticmethod
    def capture(c: np.ndarray) -> "Syr2kPre":
        ac = np.abs(c)
        return Syr2kPre(
            row=c.sum(axis=1, dtype=np.float64),
            col=c.sum(axis=0, dtype=np.float64),
            absrow=ac.sum(axis=1, dtype=np.float64),
            abscol=ac.sum(axis=0, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# The in-flight checker
# ---------------------------------------------------------------------------

def _view(x) -> np.ndarray:
    """Operand view for checksum math (unwraps prepared EC operands)."""
    arr = getattr(x, "array", x)
    return np.asarray(arr)


class AbftChecker:
    """Verifies guarded engine launches and drives the correction ladder.

    One checker lives inside one :class:`~repro.resilience.ResilienceContext`
    (mirroring the detectors/injector); its per-site launch counters align
    with the fault injector's, so an :class:`~repro.errors.SdcError`'s
    ``call_index`` names the same launch a :class:`FaultSpec` targeted.
    Thread-safe: counters and report updates are lock-guarded, and the
    checksum math itself only reads the launch's own arrays.
    """

    def __init__(self, policy: AbftPolicy) -> None:
        self.policy = policy
        self.report = AbftReport(mode=policy.mode)
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}

    # -- bookkeeping --------------------------------------------------------
    def _next_index(self, site: str) -> int:
        with self._lock:
            index = self._counters.get(site, 0)
            self._counters[site] = index + 1
            return index

    def _account(self, *, phase: "str | None", seconds: float,
                 probed: bool) -> None:
        with self._lock:
            if probed:
                self.report.probed += 1
            else:
                self.report.verified += 1
            self.report.verify_seconds += seconds
            slot = self.report.by_phase.setdefault(
                phase or "?", {"verified": 0, "detected": 0, "seconds": 0.0}
            )
            slot["verified"] += 1
            slot["seconds"] += seconds

    def _record_event(self, event: AbftEvent) -> None:
        with self._lock:
            self.report.detected += 1
            slot = self.report.by_phase.setdefault(
                event.phase or "?", {"verified": 0, "detected": 0, "seconds": 0.0}
            )
            slot["detected"] += 1
            if event.action == "corrected":
                self.report.corrected += 1
            elif event.action == "recomputed":
                self.report.recomputed += 1
            elif event.action == "raised":
                self.report.raised += 1
            if len(self.report.events) < _MAX_EVENTS:
                self.report.events.append(event)
        if event.action in ("corrected", "recomputed"):
            _obs.mark("abft.correct", "repro_sdc_detected_total",
                      f"repro_sdc_{event.action}_total", **event.to_dict())
        else:
            _obs.mark(None, "repro_sdc_detected_total")

    # -- checksum math ------------------------------------------------------
    @staticmethod
    def _gemm_sums(out, av, bv):
        """Output row/col sums vs operand-derived references + tolerances."""
        row = out.sum(axis=-1, dtype=np.float64)
        col = out.sum(axis=-2, dtype=np.float64)
        a64 = av if av.dtype == np.float64 else av.astype(np.float64)
        b64 = bv if bv.dtype == np.float64 else bv.astype(np.float64)
        row_ref = a64 @ b64.sum(axis=-1, dtype=np.float64)[..., None]
        row_ref = row_ref[..., 0]
        col_ref = (a64.sum(axis=-2, dtype=np.float64)[..., None, :] @ b64)
        col_ref = col_ref[..., 0, :]
        absa = np.abs(a64)
        absb = np.abs(b64)
        row_scale = (absa @ absb.sum(axis=-1, dtype=np.float64)[..., None])[..., 0]
        col_scale = (absa.sum(axis=-2, dtype=np.float64)[..., None, :] @ absb)[..., 0, :]
        return row, row_ref, row_scale, col, col_ref, col_scale

    def _mismatch(self, got, ref, scale, eps):
        """Indices where |got - ref| exceeds the rounding-error bound.

        NaN/Inf disagreements count as mismatches (``<=`` is False), so
        nonfinite corruption localizes like any other.
        """
        tol = self.policy.eps_factor * eps * scale
        with np.errstate(invalid="ignore"):
            ok = np.abs(got - ref) <= tol
        return ~ok

    def _freivalds_rng(self, site: str, index: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(
            [self.policy.freivalds_seed, zlib.crc32(site.encode()), index]
        ))

    # -- GEMM (2-D) ---------------------------------------------------------
    def guard_gemm(self, out, av, bv, *, precision, site: str,
                   phase: "str | None" = None, panel: "int | None" = None,
                   recompute=None, op: str = "gemm") -> np.ndarray:
        """Verify one 2-D launch; localize/correct per the policy.

        ``av``/``bv`` are the effective operand views (transposes applied,
        prepared operands unwrapped) such that ``out ≈ av @ bv``.
        ``recompute`` replays the launch deterministically and returns a
        fresh output array (correct mode only).
        """
        index = self._next_index(site)
        t0 = time.perf_counter()
        with _obs.span("abft.verify", site=site, op=op):
            eps = effective_eps(precision, out, av, bv)
            row, row_ref, row_scale, col, col_ref, col_scale = \
                self._gemm_sums(out, av, bv)
            bad_rows = np.flatnonzero(self._mismatch(row, row_ref, row_scale, eps))
            bad_cols = np.flatnonzero(self._mismatch(col, col_ref, col_scale, eps))
        self._account(phase=phase, seconds=time.perf_counter() - t0, probed=False)
        if bad_rows.size == 0 and bad_cols.size == 0:
            return out
        return self._handle_damage(
            out, bad_rows, bad_cols, site=site, index=index, op=op,
            phase=phase, panel=panel, precision=precision, recompute=recompute,
            reverify=lambda o: self._gemm_clean(o, av, bv, precision),
        )

    def _gemm_clean(self, out, av, bv, precision) -> bool:
        eps = effective_eps(precision, out, av, bv)
        row, row_ref, row_scale, col, col_ref, col_scale = \
            self._gemm_sums(out, av, bv)
        return (not self._mismatch(row, row_ref, row_scale, eps).any()
                and not self._mismatch(col, col_ref, col_scale, eps).any())

    # -- batched GEMM -------------------------------------------------------
    def guard_batched(self, out, av, bv, *, precision, site: str,
                      phase: "str | None" = None, panel: "int | None" = None,
                      recompute=None) -> np.ndarray:
        """Verify a 3-D stack — Freivalds probe for large batches.

        The probe projects every stack entry onto one deterministic ±1
        vector (``C·x`` vs ``A·(B·x)``): half the reduction passes of the
        full check.  A probe hit falls back to the full row+column pass
        so localization and correction work exactly as in the 2-D path.
        """
        batch = out.shape[0]
        use_probe = (0 < self.policy.freivalds_batch <= batch)
        index = self._next_index(site)
        suspicious = True
        if use_probe:
            t0 = time.perf_counter()
            with _obs.span("abft.verify", site=site, op="freivalds", batch=batch):
                eps = effective_eps(precision, out, av, bv)
                x = self._freivalds_rng(site, index).choice(
                    np.asarray([-1.0, 1.0]), size=out.shape[-1]
                )
                lhs = out @ x
                a64 = av if av.dtype == np.float64 else av.astype(np.float64)
                b64 = bv if bv.dtype == np.float64 else bv.astype(np.float64)
                rhs = (a64 @ (b64 @ x)[..., None])[..., 0]
                scale = (np.abs(a64) @ np.abs(b64).sum(axis=-1, dtype=np.float64)[..., None])[..., 0]
                suspicious = bool(self._mismatch(lhs, rhs, scale, eps).any())
            self._account(phase=phase, seconds=time.perf_counter() - t0, probed=True)
            if not suspicious:
                return out
        # Full pass: per-stack row/col checksums, handled entry by entry.
        t0 = time.perf_counter()
        with _obs.span("abft.verify", site=site, op="gemm_batched", batch=batch):
            eps = effective_eps(precision, out, av, bv)
            row, row_ref, row_scale, col, col_ref, col_scale = \
                self._gemm_sums(out, av, bv)
            bad_row_mask = self._mismatch(row, row_ref, row_scale, eps)
            bad_col_mask = self._mismatch(col, col_ref, col_scale, eps)
        if not use_probe:
            self._account(phase=phase, seconds=time.perf_counter() - t0,
                          probed=False)
        else:
            # Probe already counted the launch; fold in the fallback cost.
            with self._lock:
                self.report.verify_seconds += time.perf_counter() - t0
        bad_stacks = np.flatnonzero(bad_row_mask.any(axis=-1) | bad_col_mask.any(axis=-1))
        if bad_stacks.size == 0:
            return out
        clean_holder: list = [None]

        def stack_recompute(s):
            def _inner():
                if clean_holder[0] is None:
                    clean_holder[0] = recompute()
                return clean_holder[0][s]
            return _inner if recompute is not None else None

        for s in bad_stacks:
            out = self._handle_damage(
                out, np.flatnonzero(bad_row_mask[s]), np.flatnonzero(bad_col_mask[s]),
                site=site, index=index, op="gemm_batched", phase=phase,
                panel=panel, precision=precision,
                recompute=stack_recompute(int(s)), stack=int(s),
                reverify=lambda o, s=int(s): self._gemm_clean(
                    o[s], _view(av)[s], _view(bv)[s], precision),
            )
        return out

    # -- syr2k --------------------------------------------------------------
    def guard_syr2k(self, out, y, z, *, precision, site: str, alpha: float,
                    beta: float, pre, phase: "str | None" = None,
                    panel: "int | None" = None, recompute=None) -> np.ndarray:
        """Verify ``beta·C + alpha·(Y Zᵀ + Z Yᵀ)``.

        ``pre`` carries the float64 row/col sums (and |·| sums) of the
        accumulator *before* the launch when ``beta != 0`` (captured by
        the launch guard); without it the update term is verified
        alone.
        """
        index = self._next_index(site)
        t0 = time.perf_counter()
        with _obs.span("abft.verify", site=site, op="syr2k"):
            eps = effective_eps(precision, out, y, z)
            y64 = y.astype(np.float64) if y.dtype != np.float64 else y
            z64 = z.astype(np.float64) if z.dtype != np.float64 else z
            # (Y Zᵀ + Z Yᵀ)·e = Y·(Zᵀe) + Z·(Yᵀe); the output is symmetric
            # so its column reference is the same vector.
            upd = alpha * (y64 @ z64.sum(axis=0, dtype=np.float64)
                           + z64 @ y64.sum(axis=0, dtype=np.float64))
            absy, absz = np.abs(y64), np.abs(z64)
            upd_scale = abs(alpha) * (absy @ absz.sum(axis=0, dtype=np.float64)
                                      + absz @ absy.sum(axis=0, dtype=np.float64))
            if pre is not None:
                row_ref = beta * pre.row + upd
                col_ref = beta * pre.col + upd
                row_scale = abs(beta) * pre.absrow + upd_scale
                col_scale = abs(beta) * pre.abscol + upd_scale
            else:
                row_ref = col_ref = upd
                row_scale = col_scale = upd_scale
            row = out.sum(axis=1, dtype=np.float64)
            col = out.sum(axis=0, dtype=np.float64)
            bad_rows = np.flatnonzero(self._mismatch(row, row_ref, row_scale, eps))
            bad_cols = np.flatnonzero(self._mismatch(col, col_ref, col_scale, eps))
        self._account(phase=phase, seconds=time.perf_counter() - t0, probed=False)
        if bad_rows.size == 0 and bad_cols.size == 0:
            return out

        def reverify(o):
            r = o.sum(axis=1, dtype=np.float64)
            c = o.sum(axis=0, dtype=np.float64)
            return (not self._mismatch(r, row_ref, row_scale, eps).any()
                    and not self._mismatch(c, col_ref, col_scale, eps).any())

        return self._handle_damage(
            out, bad_rows, bad_cols, site=site, index=index, op="syr2k",
            phase=phase, panel=panel, precision=precision, recompute=recompute,
            reverify=reverify,
        )

    # -- driver-level copies (bulge band input) ------------------------------
    def guard_copy(self, out, ref, *, site: str, phase: "str | None" = None,
                   panel: "int | None" = None) -> np.ndarray:
        """Verify a driver-level array copy against its pristine source.

        Used where data crosses a phase boundary outside the engine (the
        bulge chaser consumes a copy of the band): the reference is in
        memory, so the comparison is exact and correction is a patch
        from the source.  Detect mode raises like any other site.
        """
        index = self._next_index(site)
        t0 = time.perf_counter()
        with _obs.span("abft.verify", site=site, op="copy"):
            with np.errstate(invalid="ignore"):
                equal = (out == ref) | (np.isnan(out) & np.isnan(ref))
        self._account(phase=phase, seconds=time.perf_counter() - t0, probed=False)
        if equal.all():
            return out
        bad = np.argwhere(~equal)
        row = col = None
        if bad.shape[0] == 1 and out.ndim == 2:
            row, col = (int(v) for v in bad[0])
        if self.policy.mode == "correct":
            action = "corrected" if bad.shape[0] == 1 else "recomputed"
            np.copyto(out, ref, where=~equal)
            self._record_event(AbftEvent(
                site=site, call_index=index, op="copy", action=action,
                phase=phase, row=row, col=col, magnitude=float(bad.shape[0]),
            ))
            return out
        event = AbftEvent(site=site, call_index=index, op="copy",
                          action="raised", phase=phase, row=row, col=col,
                          magnitude=float(bad.shape[0]))
        self._record_event(event)
        raise SdcError(
            f"ABFT copy guard at site {site!r}: {bad.shape[0]} element(s) "
            f"differ from the pristine source",
            phase=phase, panel=panel, site=site, call_index=index,
            row=row, col=col, op="copy",
        )

    # -- damage handling -----------------------------------------------------
    def _handle_damage(self, out, bad_rows, bad_cols, *, site, index, op,
                       phase, panel, precision, recompute, reverify,
                       stack: "int | None" = None):
        """Locate → correct → recompute → escalate one damaged launch."""
        target = out if stack is None else out[stack]
        single = (bad_rows.size == 1 and bad_cols.size == 1 and target.ndim == 2)
        row = int(bad_rows[0]) if single else None
        col = int(bad_cols[0]) if single else None
        magnitude = float(max(bad_rows.size, bad_cols.size))
        prec_name = getattr(precision, "value", str(precision))

        if self.policy.mode == "correct" and recompute is not None:
            for attempt in range(self.policy.max_recomputes):
                clean = recompute()
                if single and attempt == 0:
                    target[row, col] = clean[row, col]
                    action = "corrected"
                else:
                    np.copyto(target, clean, casting="same_kind")
                    action = "recomputed"
                if reverify is None or reverify(out):
                    self._record_event(AbftEvent(
                        site=site, call_index=index, op=op, action=action,
                        phase=phase, row=row, col=col, magnitude=magnitude,
                    ))
                    return out
        self._record_event(AbftEvent(
            site=site, call_index=index, op=op, action="raised",
            phase=phase, row=row, col=col, magnitude=magnitude,
        ))
        mode_note = ("persistent damage survived recomputation"
                     if self.policy.mode == "correct" else "detect mode")
        raise SdcError(
            f"ABFT checksum mismatch at site {site!r}: {bad_rows.size} row / "
            f"{bad_cols.size} column checksum(s) disagree ({mode_note})",
            phase=phase, panel=panel, site=site, precision=prec_name,
            call_index=index, row=row, col=col, op=op,
        )
