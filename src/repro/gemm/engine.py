"""Numeric GEMM engines implementing the library's precision policies.

Every matrix multiply in the band-reduction and eigensolver code goes
through ``engine.gemm(a, b, tag=...)`` so that (1) the arithmetic follows
one precision policy end to end and (2) the exact shape stream is recorded
for the performance model.

Engines are deliberately *stateless* apart from the optional trace: they
are cheap to construct and safe to share across calls of the same
algorithm invocation.  Trace appends are guarded by a per-engine lock,
so concurrent threads may record through a shared engine; note that
interleaved records then reflect thread scheduling, not program order.

When telemetry is on (:mod:`repro.obs.spans`), every call is additionally
timed and reported once: the collector stores a
:class:`repro.obs.spans.GemmEvent` attributed to the enclosing phase span
— the join between the semantic GEMM stream (tags) and the wall-clock
timeline — and the live registry its latency and flop series.

Allocation-free calling convention (PR 5)
-----------------------------------------
All entry points accept ``out=`` — a caller-owned buffer the product is
written into via ``np.matmul(..., out=)`` — plus ``ta``/``tb`` transpose
flags so call sites pass views instead of materialized transposes, and
:meth:`~GemmEngine.gemm_batched` multiplies a 3-D stack of operands in
one call (the cuBLAS ``gemmStridedBatched`` analogue; one call for the
TSQR leaf fan-out instead of a Python loop).  When ``out`` overlaps an
operand the engine transparently computes into a temporary and copies,
so aliasing is safe (at the cost of the allocation being avoided).
Engines constructed with a :class:`repro.perf.Workspace` reuse their
kernels' internal scratch (EC split buffers, chunk accumulators) across
calls, and :meth:`~GemmEngine.prepare_operand` amortizes a Tensor-Core
engine's operand transformation (the EC hi/lo split, the FP16/BF16/TF32
rounding) across repeated multiplies against the same matrix, or against
column blocks of a buffer that is re-prepared only where it was written
(:mod:`repro.precision.prepared`).
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod

import numpy as np

from ..errors import ConfigurationError, ShapeError
from ..obs import spans as _obs
from ..precision.ec_tcgemm import _ec_tcgemm
from ..precision.modes import Precision
from ..precision.prepared import PreparedOperand, prepare
from ..precision.tcgemm import _tcgemm
from .trace import GemmRecord, GemmTrace

__all__ = [
    "GemmEngine",
    "PlainEngine",
    "SgemmEngine",
    "Fp64Engine",
    "TensorCoreEngine",
    "EcTensorCoreEngine",
    "make_engine",
]

#: NumPy's C ``may_share_memory``, without the array-function dispatcher
#: in front of ``np.may_share_memory`` (half the cost of the alias test).
_may_share_memory = getattr(np.may_share_memory, "_implementation",
                            np.may_share_memory)
#: The kernels' working dtypes: comparing a dtype with a dtype skips the
#: conversion a comparison with ``np.float32`` makes on every launch.
_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)


class GemmEngine(ABC):
    """A matrix-multiply executor with optional call recording.

    Subclasses define :attr:`name`, :attr:`precision` and the raw
    :meth:`_matmul`.  The public :meth:`gemm`, :meth:`gemm_batched` and
    :meth:`syr2k` validate shapes, then run the kernel.  A launch that
    something observes (a trace, a telemetry sink, a resilience guard)
    goes through :meth:`_launch`, the one place a launch is recorded,
    timed and guarded; any other goes from validation straight to the
    kernel.
    """

    #: Short engine identifier stored in trace records.
    name: str = "abstract"
    #: The precision policy this engine implements.
    precision: Precision = Precision.FP32
    #: The format :meth:`prepare_operand` transforms operands into and
    #: :meth:`_matmul` consumes handles of (``"ec"``, ``"fp16"``,
    #: ``"bf16"``, ``"tf32"``); None for engines that transform nothing.
    #: A kernel is handed a handle of another format as its source array.
    prepared_format: "str | None" = None
    #: Whether a launch must go through :meth:`_launch` even with no
    #: trace and no telemetry sink: a resilience guard that injects
    #: faults or verifies results there (:class:`~repro.resilience.
    #: ResilientEngine`).
    _guarded: bool = False

    def __init__(self, *, record: bool = False, workspace=None) -> None:
        self.trace: GemmTrace | None = GemmTrace() if record else None
        self._trace_lock = threading.Lock()
        #: Optional :class:`repro.perf.Workspace` for kernel-internal
        #: scratch (EC split buffers, chunked-accumulation scratch).
        self.workspace = workspace

    @property
    def working_dtype(self) -> np.dtype:
        """dtype in which matrices flow between kernels under this engine."""
        return self.precision.working_dtype

    @abstractmethod
    def _matmul(self, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
        """Raw product of validated operands (2-D, or 3-D batched stacks).

        When ``out`` is given it does not alias the operands (the public
        entry points guarantee that) and has the product's shape; the
        implementation writes into it and returns it.
        """

    # -- the one launch path ----------------------------------------------
    def _launch(self, call: tuple, kernel, a, b, out, alpha=1.0, beta=0.0):
        """Record ``call``, run ``kernel(a, b, out)``, time it when telemetry is on.

        Every public entry point validates its operands and ends here
        when a trace, a telemetry sink or a guard observes the launch.
        ``call`` is the launch's :class:`~repro.gemm.trace.GemmRecord`
        fields in order, ``(m, n, k, tag, engine, op, batch)``, as a plain
        tuple: the record itself is built only for a trace that keeps it.
        ``out`` (if any) is already validated and alias-free.
        ``alpha``/``beta`` are the syr2k scalars, passed through for
        subclasses that guard the launch.
        """
        if self.trace is not None:
            with self._trace_lock:
                self.trace.add(GemmRecord(*call))
        # The telemetry slot is read directly: with nothing installed a
        # launch pays one module read, no call and no allocation.  When
        # on, one timing feeds one gemm_event, which spans hands to the
        # collector and the live registry.
        sinks = _obs._active
        if sinks is None:
            return kernel(a, b, out)
        t0 = sinks.clock()
        res = kernel(a, b, out)
        m, n, k, tag, engine, op, batch = call
        _obs.gemm_event(m, n, k, tag=tag, engine=engine, op=op, batch=batch,
                        seconds=sinks.clock() - t0, start=t0)
        return res

    @staticmethod
    def _resolve_out(out, shape, a, b):
        """Validate ``out`` and decide whether it can be written directly.

        Returns ``(direct_out, copy_back)``: when ``out`` overlaps an
        operand the product must go through a temporary (``direct_out is
        None``) and be copied into ``out`` afterwards.
        """
        if out is None:
            return None, False
        if not isinstance(out, np.ndarray):
            raise ShapeError(f"out must be an ndarray, got {type(out).__name__}")
        if out.shape != shape:
            raise ShapeError(f"out has shape {out.shape}, expected {shape}")
        if _may_share_memory(out, a) or _may_share_memory(out, b):
            return None, True
        return out, False

    def prepare_operand(self, a, *, tag: str = "prep", cols: int | None = None,
                        twins: bool = True):
        """Pre-process an operand for repeated :meth:`gemm` calls.

        Engines whose kernels transform operands before multiplying (the
        EC engine's hi/lo FP16 split, the Tensor-Core engines' rounding)
        return a :class:`~repro.precision.prepared.PreparedOperand`
        that amortizes that transformation; all other engines return the
        array unchanged.  The handle is valid while the source array's
        contents are unchanged and may be passed as either ``gemm``
        operand (not with ``ta``/``tb``; its views ``h[:, i:j]``,
        ``h[r:]`` and ``h.T`` serve instead).  Results are bitwise
        identical to passing the array.

        ``cols`` prepares only the leading ``cols`` columns of a 2-D
        buffer that the caller fills column block by column block;
        ``twins=False`` says the caller never multiplies its transpose,
        so it needs no transposed twins (:mod:`repro.precision.prepared`).
        Passing a handle (or a view of one) re-prepares it in place from
        its source's current contents — on *every* engine, so a handle
        refreshed while an escalated engine is active is current again
        when the handle's own engine is restored.
        """
        if isinstance(a, PreparedOperand):
            return a.resplit()
        if self.prepared_format is None:
            return a if type(a) is np.ndarray else np.asarray(a)
        return prepare(a, self.prepared_format, ws=self.workspace, name=tag,
                       cols=cols, twins=twins)

    def gemm(self, a, b, *, tag: str = "", out=None, ta: bool = False,
             tb: bool = False) -> np.ndarray:
        """Compute ``op(a) @ op(b)`` under this engine's precision policy.

        Parameters
        ----------
        a, b : array_like
            2-D operands with matching inner dimension (or handles from
            :meth:`prepare_operand`, or their ``h[...]``/``h.T`` views).
        tag : str
            Semantic label recorded in the trace (call-site identity).
        out : ndarray, optional
            Caller-owned output buffer of shape ``(m, n)``.  Written via
            ``np.matmul(..., out=)`` — no product temporary.  May alias an
            operand (the engine then computes into a temporary and
            copies).  The *returned* array is always the result; callers
            must use it rather than assume ``out`` was mutated in place
            (a resilient engine's guard may substitute a different array).
        ta, tb : bool
            Multiply with the operand transposed (a no-copy view) —
            ``gemm(a, b, ta=True)`` is ``a.T @ b`` without the caller
            materializing ``a.T``.  Not supported for prepared operands
            (pass the handle's ``.T`` view instead).
        """
        prep_a = type(a) is PreparedOperand
        prep_b = type(b) is PreparedOperand
        av = a.array if prep_a else a if type(a) is np.ndarray else np.asarray(a)
        bv = b.array if prep_b else b if type(b) is np.ndarray else np.asarray(b)
        if av.ndim != 2 or bv.ndim != 2:
            raise ShapeError(
                f"gemm requires 2-D operands, got {av.ndim}-D and {bv.ndim}-D"
            )
        if ta:
            if prep_a:
                raise ShapeError("ta=True is not supported for a prepared operand")
            av = a = av.T
        if tb:
            if prep_b:
                raise ShapeError("tb=True is not supported for a prepared operand")
            bv = b = bv.T
        if av.shape[1] != bv.shape[0]:
            raise ShapeError(f"inner dimensions differ: {av.shape} @ {bv.shape}")
        m, k = av.shape
        n = bv.shape[1]
        direct, copy_back = self._resolve_out(out, (m, n), av, bv)
        if not (m and n and k):
            # The record raises the zero-dimension ValueError.
            GemmRecord(m, n, k, tag, self.name, "gemm", 1)
        fmt = self.prepared_format
        if not (prep_a and a.fmt == fmt):
            a = av
        if not (prep_b and b.fmt == fmt):
            b = bv
        if self.trace is None and _obs._active is None and not self._guarded:
            res = self._matmul(a, b, direct)
        else:
            res = self._launch((m, n, k, tag, self.name, "gemm", 1),
                               self._matmul, a, b, direct)
        if copy_back:
            np.copyto(out, res, casting="same_kind")
            return out
        return res

    def gemm_batched(self, a, b, *, tag: str = "", out=None, ta: bool = False,
                     tb: bool = False) -> np.ndarray:
        """Multiply a stack of independent products in one call.

        ``a`` is ``(batch, m, k)``, ``b`` is ``(batch, k, n)``; the result
        is ``(batch, m, n)`` with ``result[i] = a[i] @ b[i]``.  One
        engine call (and one trace record, ``op="gemm_batched"``) covers
        the whole stack — the cuBLAS ``gemmStridedBatched`` analogue used
        by the TSQR leaf fan-out and the D&C back-transform.  ``ta``/
        ``tb`` transpose the matrix dimensions of every stack element.
        """
        if type(a) is not np.ndarray:
            a = np.asarray(a)
        if type(b) is not np.ndarray:
            b = np.asarray(b)
        if a.ndim != 3 or b.ndim != 3:
            raise ShapeError(
                f"gemm_batched requires 3-D operands, got {a.ndim}-D and {b.ndim}-D"
            )
        if ta:
            a = a.swapaxes(-2, -1)
        if tb:
            b = b.swapaxes(-2, -1)
        if a.shape[0] != b.shape[0]:
            raise ShapeError(f"batch dimensions differ: {a.shape} @ {b.shape}")
        if a.shape[2] != b.shape[1]:
            raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
        batch, m, k = a.shape
        n = b.shape[2]
        direct, copy_back = self._resolve_out(out, (batch, m, n), a, b)
        if not (m and n and k and batch):
            # The record raises the zero-dimension ValueError.
            GemmRecord(m, n, k, tag, self.name, "gemm_batched", batch)
        if self.trace is None and _obs._active is None and not self._guarded:
            res = self._matmul(a, b, direct)
        else:
            res = self._launch((m, n, k, tag, self.name, "gemm_batched", batch),
                               self._matmul, a, b, direct)
        if copy_back:
            np.copyto(out, res, casting="same_kind")
            return out
        return res

    def syr2k(self, y, z, *, tag: str = "", out=None, alpha: float = 1.0,
              beta: float = 0.0) -> np.ndarray:
        """Symmetric rank-2k update ``beta*C + alpha*(Y Z^T + Z Y^T)``.

        Numerically computed as one policy GEMM plus its transpose (exactly
        symmetric output).  Recorded as a single ``syr2k`` record with the
        symmetry-exploiting flop count — the device model uses the record
        kind to price a *native* syr2k (the paper's future-work item; real
        Tensor Cores lack one and pay for two full GEMMs instead).

        With ``out`` the update is fused in place (BLAS ``syr2k``
        semantics): ``out`` is scaled by ``beta`` and accumulates
        ``alpha * (Y Z^T + Z Y^T)`` — ``syr2k(z, y, out=c, alpha=-1.0,
        beta=1.0)`` is the trailing update ``C -= Z Y^T + Y Z^T`` without
        a full-size temporary for the subtraction.  Without ``out`` the
        scaled update itself is returned (``beta`` must be 0).
        """
        if type(y) is not np.ndarray:
            y = np.asarray(y)
        if type(z) is not np.ndarray:
            z = np.asarray(z)
        if y.ndim != 2 or z.ndim != 2 or y.shape != z.shape:
            raise ShapeError(
                f"syr2k requires equal-shape 2-D operands, got {y.shape} and {z.shape}"
            )
        mm = y.shape[0]
        if out is None and beta != 0.0:
            raise ShapeError("syr2k with beta != 0 requires an out= buffer to scale")
        if out is not None:
            if not isinstance(out, np.ndarray):
                raise ShapeError(f"out must be an ndarray, got {type(out).__name__}")
            if out.shape != (mm, mm):
                raise ShapeError(f"out has shape {out.shape}, expected {(mm, mm)}")
        if not (mm and y.shape[1]):
            # The record raises the zero-dimension ValueError.
            GemmRecord(mm, mm, y.shape[1], tag, self.name, "syr2k", 1)

        def kernel(y, z, out):
            p = self._matmul(y, z.T)
            s = p + p.T
            if alpha != 1.0:
                s *= s.dtype.type(alpha)
            if out is None:
                return s
            if beta == 0.0:
                np.copyto(out, s, casting="same_kind")
            elif beta == 1.0:
                np.add(out, s, out=out, casting="same_kind")
            else:
                np.multiply(out, out.dtype.type(beta), out=out)
                np.add(out, s, out=out, casting="same_kind")
            return out

        if self.trace is None and _obs._active is None and not self._guarded:
            return kernel(y, z, out)
        return self._launch((mm, mm, y.shape[1], tag, self.name, "syr2k", 1),
                            kernel, y, z, out, alpha, beta)

    def reset_trace(self) -> None:
        """Clear the recorded trace (enables recording if it was off)."""
        with self._trace_lock:
            self.trace = GemmTrace()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rec = "recording" if self.trace is not None else "not recording"
        return f"<{type(self).__name__} ({rec}, {len(self.trace or [])} calls)>"


class PlainEngine(GemmEngine):
    """Dtype-neutral GEMM: plain matmul in the operands' own precision.

    This is the default for low-level kernels (:mod:`repro.la`) so that a
    float64 computation stays float64 end to end.  It imposes no precision
    *policy*; drivers that model a device pick one of the policy engines.
    """

    name = "plain"
    precision = Precision.FP32  # working dtype when a driver asks; gemm follows operands

    def _matmul(self, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
        if out is not None:
            return np.matmul(a, b, out=out)
        return a @ b


class SgemmEngine(GemmEngine):
    """FP32 SIMT-core GEMM ("SGEMM"): plain single-precision matmul."""

    name = "sgemm"
    precision = Precision.FP32

    def _matmul(self, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
        # No-copy fast path: operands that are already float32 go straight
        # into the BLAS call instead of round-tripping through asarray.
        if a.dtype != _F32:
            a = a.astype(np.float32)
        if b.dtype != _F32:
            b = b.astype(np.float32)
        if out is not None:
            return np.matmul(a, b, out=out)
        return np.matmul(a, b)


class Fp64Engine(GemmEngine):
    """Double-precision reference GEMM (used for exactness baselines)."""

    name = "fp64"
    precision = Precision.FP64

    def _matmul(self, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
        if a.dtype != _F64:
            a = a.astype(np.float64)
        if b.dtype != _F64:
            b = b.astype(np.float64)
        if out is not None:
            return np.matmul(a, b, out=out)
        return np.matmul(a, b)


class TensorCoreEngine(GemmEngine):
    """Emulated Tensor-Core GEMM with a configurable operand format."""

    name = "tc"

    def __init__(
        self,
        *,
        record: bool = False,
        workspace=None,
        operand_format: str = "fp16",
        chunk_k: int | None = None,
    ) -> None:
        super().__init__(record=record, workspace=workspace)
        self.operand_format = operand_format
        self.chunk_k = chunk_k
        # The float32-storage, uncorrected mode whose operands are rounded
        # to ``operand_format`` (``fp32`` names the plain SGEMM policy).
        self.precision = next(
            (p for p in Precision if p.operand_format == operand_format
             and p.working_dtype == np.float32 and not p.is_error_corrected),
            None,
        )
        if self.precision is None:
            raise ConfigurationError(f"unknown operand format {operand_format!r}")
        if operand_format != "fp32":
            self.prepared_format = operand_format

    def _matmul(self, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
        # The entry points validated the operands: skip tcgemm's checks.
        return _tcgemm(a, b, self.operand_format, self.chunk_k, out,
                       self.workspace)


class EcTensorCoreEngine(GemmEngine):
    """Error-corrected Tensor-Core GEMM (FP32-accurate; paper's EC-TCGEMM)."""

    name = "ectc"
    precision = Precision.FP16_EC_TC
    prepared_format = "ec"

    def __init__(self, *, record: bool = False, workspace=None,
                 chunk_k: int | None = None) -> None:
        super().__init__(record=record, workspace=workspace)
        self.chunk_k = chunk_k

    def prepare_operand(self, a, *, tag: str = "prep", cols: int | None = None,
                        twins: bool = True):
        """Hi/lo-split ``a`` once for repeated multiplication.

        The SBR drivers prepare the block-constant trailing matrix OA so
        its FP16 split (several full passes over an M×M array) is paid
        once per big block instead of once per panel, and the block's
        growing ``W``/``Y``/``OAW`` buffers (``cols=``) so each column
        is split once, when it is written.  The handle is the one every
        Tensor-Core engine prepares (:mod:`repro.precision.prepared`),
        with ``fmt="ec"``.
        """
        return super().prepare_operand(a, tag=tag, cols=cols, twins=twins)

    def _matmul(self, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
        # The entry points validated the operands: skip ec_tcgemm's checks.
        return _ec_tcgemm(a, b, self.chunk_k, out, self.workspace)


def make_engine(
    precision: "Precision | str", *, record: bool = False, workspace=None
) -> GemmEngine:
    """Construct the numeric engine implementing a :class:`Precision` policy.

    Parameters
    ----------
    precision : Precision or str
        The precision policy (enum member or its string value).
    record : bool
        Whether the engine records its calls into a :class:`GemmTrace`.
    workspace : repro.perf.Workspace, optional
        Scratch arena for kernel-internal buffers (EC operand splits,
        chunked accumulation) — reused across calls instead of
        reallocated per call.
    """
    mode = Precision.from_name(precision)
    if mode is Precision.FP64:
        return Fp64Engine(record=record, workspace=workspace)
    if mode is Precision.FP32:
        return SgemmEngine(record=record, workspace=workspace)
    if mode is Precision.FP16_EC_TC:
        return EcTensorCoreEngine(record=record, workspace=workspace)
    return TensorCoreEngine(
        record=record, workspace=workspace, operand_format=mode.operand_format
    )
