"""Deterministic fault injection for the resilience test harness.

A :class:`FaultInjector` corrupts arrays at named *sites* — the GEMM tags
of the band-reduction stream (``panel_tsqr``, ``wy_right``, ``form_q``,
...) plus driver-level sites (``bulge``) — at a chosen call index, with a
chosen corruption kind, reproducibly from a seed.  The injector is wired
into the launch guard :meth:`repro.resilience.ResilienceContext.after_launch`
(GEMM outputs) and
into the driver-level injection points, so tests can prove that every
detector fires and every fallback path recovers.

Corruption kinds
----------------
``nan``             overwrite sampled entries with NaN
``inf``             overwrite sampled entries with +Inf
``sign_flip``       negate sampled entries (silent corruption — invisible
                    to NaN scans; caught by invariant-drift detectors)
``mantissa_noise``  multiply sampled entries by ``1 + noise`` (silent)
``overflow``        multiply sampled entries by ``scale`` (default 1e30 —
                    finite in FP32, caught by the magnitude detector)
``bitflip``         XOR one bit of a single entry's storage word — the
                    canonical silent-data-corruption model the online
                    ABFT layer (:mod:`repro.resilience.abft`) detects,
                    localizes, and corrects.  ``bit`` selects the bit
                    position (default: the dtype's top exponent bit, so
                    the flip is numerically large in either direction);
                    exactly one element is corrupted per firing.

Faults are *transient* by default (``count=1``): each spec fires at most
``count`` times, so a retry of the corrupted unit sees clean data — the
model of a transient bit-flip/overflow the escalation ladder is designed
to recover from.  Persistent faults (``count`` large) exhaust the retry
budget and exercise the ``raise``/``best_effort`` paths.
"""

from __future__ import annotations

import fnmatch
import threading
import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultRecord", "FaultInjector"]

FAULT_KINDS = ("nan", "inf", "sign_flip", "mantissa_noise", "overflow", "bitflip")

#: Top exponent bit per float itemsize — the default ``bitflip`` target.
_TOP_EXPONENT_BIT = {2: 14, 4: 30, 8: 62}


@dataclass(frozen=True)
class FaultSpec:
    """One planned corruption: *where*, *when*, *what*, *how reproducibly*.

    Parameters
    ----------
    site : str
        Injection-site pattern (``fnmatch`` glob) matched against GEMM
        tags and driver sites, e.g. ``"panel_tsqr"``, ``"wy_*"``,
        ``"bulge"``.
    kind : str
        One of :data:`FAULT_KINDS`.
    call_index : int
        Which matching call to corrupt (0-based, per site pattern).
    count : int
        Maximum number of firings (default 1: a transient fault).
    fraction : float
        Fraction of entries corrupted (at least one entry).
    scale : float
        Multiplier for ``overflow``; relative amplitude for
        ``mantissa_noise``.
    seed : int
        Base seed; combined with the site name and call index so every
        firing is independently deterministic.
    bit : int or None
        ``bitflip`` only: which bit of the element's storage word is
        XORed (0 = least-significant mantissa bit).  ``None`` picks the
        dtype's top exponent bit at firing time, which perturbs the
        value by many orders of magnitude whether set or clear.
    """

    site: str
    kind: str = "nan"
    call_index: int = 0
    count: int = 1
    fraction: float = 0.02
    scale: float = 1e30
    seed: int = 0
    bit: "int | None" = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.bit is not None and self.bit < 0:
            raise ValueError(f"bit must be non-negative, got {self.bit}")


@dataclass(frozen=True)
class FaultRecord:
    """One fault that actually fired (for the resilience report)."""

    site: str
    call_index: int
    kind: str
    entries: int

    def to_dict(self) -> dict:
        return {
            "site": self.site, "call_index": self.call_index,
            "kind": self.kind, "entries": self.entries,
        }


class FaultInjector:
    """Applies :class:`FaultSpec` corruptions to arrays flowing past sites.

    Thread-safe (per-site counters are lock-guarded); reusable across
    runs via :meth:`reset`.
    """

    def __init__(self, specs: "list[FaultSpec] | FaultSpec | None" = None) -> None:
        if specs is None:
            specs = []
        if isinstance(specs, FaultSpec):
            specs = [specs]
        self.specs = list(specs)
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._firings: dict[int, int] = {}
        self.fired: list[FaultRecord] = []

    def reset(self) -> None:
        """Forget all call counters and firing history."""
        with self._lock:
            self._counters.clear()
            self._firings.clear()
            self.fired = []

    def _rng(self, spec: FaultSpec, site: str, index: int) -> np.random.Generator:
        # Stable per-(spec, site, call) stream: same seed -> same corruption.
        return np.random.default_rng(
            np.random.SeedSequence([spec.seed, zlib.crc32(site.encode()), index])
        )

    def _corrupt(self, arr: np.ndarray, spec: FaultSpec, site: str, index: int) -> tuple[np.ndarray, int]:
        rng = self._rng(spec, site, index)
        out = np.array(arr, copy=True)
        flat = out.ravel()
        if spec.kind == "bitflip":
            # A single flipped storage bit in one element — the SDC model.
            pos = int(rng.integers(flat.size))
            bits = max(1, out.dtype.itemsize) * 8
            bit = spec.bit if spec.bit is not None else \
                _TOP_EXPONENT_BIT.get(out.dtype.itemsize, bits - 2)
            word = flat[pos:pos + 1].view(f"u{out.dtype.itemsize}")
            word ^= word.dtype.type(1 << (bit % bits))
            return out, 1
        n_bad = max(1, int(round(spec.fraction * flat.size)))
        idx = rng.choice(flat.size, size=min(n_bad, flat.size), replace=False)
        if spec.kind == "nan":
            flat[idx] = np.nan
        elif spec.kind == "inf":
            flat[idx] = np.inf
        elif spec.kind == "sign_flip":
            flat[idx] = -flat[idx]
        elif spec.kind == "mantissa_noise":
            noise = spec.scale if spec.scale < 1.0 else 0.25
            flat[idx] = flat[idx] * (1.0 + noise * rng.standard_normal(idx.size))
        elif spec.kind == "overflow":
            with np.errstate(over="ignore"):
                flat[idx] = flat[idx] * out.dtype.type(spec.scale)
        return out, int(idx.size)

    def apply(self, site: str, arr: np.ndarray) -> np.ndarray:
        """Pass ``arr`` through the injection site, corrupting if due.

        Returns the (possibly corrupted, always copied-on-corrupt) array.
        """
        if not self.specs:
            return arr
        with self._lock:
            index = self._counters.get(site, 0)
            self._counters[site] = index + 1
            due = []
            for sid, spec in enumerate(self.specs):
                if not fnmatch.fnmatchcase(site, spec.site):
                    continue
                if index != spec.call_index and self._firings.get(sid, 0) == 0:
                    continue
                if self._firings.get(sid, 0) >= spec.count:
                    continue
                if index < spec.call_index:
                    continue
                self._firings[sid] = self._firings.get(sid, 0) + 1
                due.append(spec)
        for spec in due:
            arr, entries = self._corrupt(arr, spec, site, index)
            rec = FaultRecord(site=site, call_index=index, kind=spec.kind, entries=entries)
            with self._lock:
                self.fired.append(rec)
        return arr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultInjector {len(self.specs)} specs, {len(self.fired)} fired>"
