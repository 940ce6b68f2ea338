"""Ablation studies on the paper's design choices (beyond its figures).

Each ablation isolates one decision the paper makes or defers:

- ``run_syr2k_ablation`` — the paper's future-work item (§7): *if* Tensor
  Cores had a native ``syr2k``, would the ZY algorithm win again?  We
  price the ZY shape stream with a hypothetical TC syr2k (half flops, one
  kernel) against the WY algorithm.
- ``run_q_method_ablation`` — Algorithm 2's recursive W formation vs the
  conventional sequential back-transformation (§4.4: 320 ms vs 420 ms).
- ``run_panel_ablation`` — measured cost of the paper's TSQR panel
  against blocked and unblocked Householder QR on one panel.
- ``run_precision_ablation`` — accuracy of the band reduction across all
  emulated operand formats (fp16/bf16/tf32/EC/fp32), extending Table 3's
  single-format column.
- ``run_recursive_qr_study`` — the ref [41] lineage: recursive vs blocked
  one-sided QR under the device model.
- ``run_accuracy_scaling`` — error growth with matrix size (supports the
  Table 3/4 extrapolation argument).
- ``run_evd_vectors_study`` — the full EVD *with* eigenvectors, beyond
  Fig 11's eigenvalues-only scope.
- ``run_accumulator_study`` — emulation fidelity: accumulator chunking vs
  operand rounding.
"""

from __future__ import annotations

import time

import numpy as np

from ..device import PerfModel
from ..gemm.engine import SgemmEngine, make_engine
from ..gemm.symbolic import trace_form_q, trace_sbr_wy, trace_sbr_zy
from ..la import (
    blocked_qr, build_wy, householder_qr, reconstruct_wy, tsqr, wy_matrix,
)
from ..matrices.generate import generate_symmetric
from ..metrics.accuracy import backward_error, orthogonality_error
from ..sbr.methods import default_nb
from ..sbr.wy import sbr_wy
from .runner import ExperimentResult

__all__ = [
    "run_syr2k_ablation",
    "run_q_method_ablation",
    "run_panel_ablation",
    "run_precision_ablation",
    "run_recursive_qr_study",
    "run_accuracy_scaling",
    "run_evd_vectors_study",
    "run_accumulator_study",
]


def run_syr2k_ablation(
    *,
    sizes: tuple[int, ...] = (4096, 8192, 16384, 32768),
    b: int = 128,
    nb: int = 1024,
    model: PerfModel | None = None,
) -> ExperimentResult:
    """Would a native Tensor-Core syr2k restore the ZY algorithm's crown?"""
    pm = model if model is not None else PerfModel()
    result = ExperimentResult(
        name="ablation_syr2k",
        title="Hypothetical native TC syr2k: ZY (syr2k) vs ZY (2 GEMMs) vs WY",
        columns=["n", "wy_s", "zy_two_gemms_s", "zy_native_syr2k_s", "wy_still_wins"],
        notes=[
            "The paper's §7 proposes implementing a Tensor-Core syr2k to halve "
            "the ZY rank-2b update.  Under the Table-1-calibrated model, the "
            "native-syr2k ZY overtakes the WY algorithm at every size — "
            "quantifying how much of the WY advantage exists *because* the "
            "hardware primitive is missing.",
        ],
    )
    for n in sizes:
        wy = pm.trace_time(trace_sbr_wy(n, b, nb, want_q=False), "tc")
        zy2 = pm.trace_time(trace_sbr_zy(n, b, want_q=False), "tc")
        zyn = pm.trace_time(trace_sbr_zy(n, b, want_q=False, use_syr2k=True), "tc")
        result.add_row(
            n=n,
            wy_s=wy,
            zy_two_gemms_s=zy2,
            zy_native_syr2k_s=zyn,
            wy_still_wins=wy < zyn,
        )
    return result


def run_q_method_ablation(
    *,
    n: int = 32768,
    b: int = 128,
    nb: int = 1024,
    model: PerfModel | None = None,
) -> ExperimentResult:
    """Algorithm 2 (tree) vs sequential forward Q assembly (paper §4.4)."""
    pm = model if model is not None else PerfModel()
    # Per-big-block (offset, accumulated columns), mirroring the WY driver.
    blocks: list[tuple[int, int]] = []
    j0 = 0
    while n - j0 - b >= 2:
        k = 0
        advance = False
        for r in range(0, nb, b):
            m = n - (j0 + r) - b
            if m < 2:
                break
            k += min(b, m)
            if m <= b + 1:
                break
            if r + b >= nb:
                advance = True
                break
        if k:
            blocks.append((j0 + b, k))
        if not advance:
            break
        j0 += nb
    result = ExperimentResult(
        name="ablation_q_method",
        title=f"Back-transformation: recursive FormW (Algorithm 2) vs forward (n={n})",
        columns=["method", "time_s", "gemm_calls", "total_tflop"],
        notes=[
            "Paper §4.4 measures 320 ms (WY/tree) vs 420 ms (ZY/forward) at "
            "n=32768.  Under the shape/throughput model alone the two methods "
            "price about the same (the tree does ~2x the flops at ~2x the "
            "rate); the paper's measured gap therefore reflects kernel-count "
            "and fusion effects beyond Table 1 — an honest boundary of the "
            "shape-stream model, recorded here.",
        ],
    )
    for method in ("tree", "forward"):
        tr = trace_form_q(n, blocks, method=method)
        result.add_row(
            method=method,
            time_s=pm.trace_time(tr, "tc"),
            gemm_calls=len(tr),
            total_tflop=tr.total_flops / 1e12,
        )
    return result


def run_panel_ablation(
    *,
    m: int = 2048,
    w: int = 64,
    repeats: int = 3,
    seed: int = 99,
) -> ExperimentResult:
    """Measured (real, NumPy) cost and accuracy of three panel QRs.

    ``tsqr`` is the panel both SBR drivers run (TSQR + reconstruction);
    ``blocked_qr`` and ``unblocked_qr`` are the cuSOLVER- and MAGMA-like
    Householder QRs it is compared with, each turned into WY form.
    """

    def tsqr_panel(p):
        eng = SgemmEngine()
        q, r = tsqr(p, engine=eng, tag="panel_tsqr")
        w, y, s = reconstruct_wy(q, engine=eng, tag="panel_reconstruct")
        return w, y, r * s[:, np.newaxis]

    def wy_panel(v_cols, betas, r):
        return (*build_wy(v_cols, betas), r)

    rng = np.random.default_rng(seed)
    panel = rng.standard_normal((m, w)).astype(np.float32)
    result = ExperimentResult(
        name="ablation_panel",
        title=f"Panel strategies on a {m}x{w} panel (library numerics)",
        columns=["strategy", "time_ms", "factorization_error"],
        notes=[
            "Times are this library's NumPy implementation, not GPU kernels; "
            "the accuracy column checks P = (I - W Y^T)[:, :w] R for each.",
        ],
    )
    for name, factor in (
        ("tsqr", tsqr_panel),
        ("blocked_qr", lambda p: wy_panel(*blocked_qr(p))),
        ("unblocked_qr", lambda p: wy_panel(*householder_qr(p))),
    ):
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            pw, py, pr = factor(panel)
            best = min(best, time.perf_counter() - t0)
        q_full = wy_matrix(pw.astype(np.float64), py.astype(np.float64))
        err = float(np.abs(q_full[:, :w] @ pr.astype(np.float64) - panel).max())
        result.add_row(strategy=name, time_ms=best * 1e3, factorization_error=err)
    return result


def run_precision_ablation(
    *,
    n: int = 256,
    b: int = 8,
    nb: int = 32,
    seed: int = 5,
) -> ExperimentResult:
    """Band-reduction accuracy across every emulated operand format."""
    rng = np.random.default_rng(seed)
    a, _ = generate_symmetric(n, distribution="geo", cond=1e3, rng=rng)
    result = ExperimentResult(
        name="ablation_precision",
        title=f"SBR accuracy vs precision policy (n={n}, b={b}, nb={nb})",
        columns=["precision", "backward_error", "orthogonality", "machine_eps"],
        notes=[
            "Errors track each format's unit roundoff: bf16 ~8x worse than "
            "fp16/tf32, EC-TCGEMM recovers fp32 — the generalization of "
            "Table 3 across operand formats.",
        ],
    )
    for precision in ("fp64", "fp32", "fp16_ec_tc", "tf32_tc", "fp16_tc", "bf16_tc"):
        eng = make_engine(precision)
        res = sbr_wy(a, b, nb, engine=eng, want_q=True)
        result.add_row(
            precision=precision,
            backward_error=backward_error(a, res.q, res.band),
            orthogonality=orthogonality_error(res.q),
            machine_eps=eng.precision.machine_eps,
        )
    return result


def run_recursive_qr_study(
    *,
    shapes: tuple[tuple[int, int], ...] = ((32768, 4096), (32768, 16384), (32768, 32768)),
    block: int = 128,
    model: PerfModel | None = None,
) -> ExperimentResult:
    """The lineage study: recursive vs blocked one-sided QR (paper ref [41]).

    The paper's §4.2 credits the recursive Tensor-Core QR of Zhang et al.
    (2020) as the inspiration for Algorithm 1.  This study prices both QR
    formulations' GEMM streams on the calibrated model, reproducing the
    qualitative headline of [41]: recursion converts skinny trailing
    updates into near-square GEMMs and wins by ~1.5–2x at large sizes.
    """
    from ..la.recursive_qr import trace_blocked_qr, trace_recursive_qr

    pm = model if model is not None else PerfModel()
    result = ExperimentResult(
        name="ablation_recursive_qr",
        title="One-sided QR on Tensor Cores: recursive (ref [41]) vs blocked",
        columns=["m", "n", "recursive_s", "blocked_s", "speedup", "recursive_tflop", "blocked_tflop"],
        notes=[
            "Model times of the GEMM streams only (panels excluded on both "
            "sides); the recursion's advantage grows with n as its updates "
            "become square — the effect Algorithm 1 imports into the "
            "two-sided band reduction.",
        ],
    )
    for m, n in shapes:
        tr = trace_recursive_qr(m, n, leaf_cols=block)
        tb = trace_blocked_qr(m, n, block=block)
        t_rec = pm.trace_time(tr, "tc")
        t_blk = pm.trace_time(tb, "tc")
        result.add_row(
            m=m,
            n=n,
            recursive_s=t_rec,
            blocked_s=t_blk,
            speedup=t_blk / t_rec,
            recursive_tflop=tr.total_flops / 1e12,
            blocked_tflop=tb.total_flops / 1e12,
        )
    return result


def run_accuracy_scaling(
    *,
    sizes: tuple[int, ...] = (128, 256, 512, 1024),
    precision: str = "fp16_tc",
    seed: int = 41,
) -> ExperimentResult:
    """Error growth of the Tensor-Core SBR with matrix size.

    Table 3 is measured at a single size; this study tracks E_b and E_o
    over a size sweep to support extrapolating our library-scale runs to
    the paper's n = 32768.  Both metrics divide by N, so sub-linear error
    growth makes the *reported* values shrink with n — which is why our
    Table 3 numbers sit below the paper's even though both are bounded by
    the same Tensor-Core epsilon.
    """
    rng = np.random.default_rng(seed)
    result = ExperimentResult(
        name="ablation_scaling",
        title=f"SBR error vs matrix size ({precision})",
        columns=["n", "b", "nb", "backward_error", "orthogonality", "Eo_times_N"],
        notes=[
            "Eo_times_N (the unnormalized orthogonality defect) grows "
            "sub-linearly; the per-N metrics the paper reports therefore "
            "decrease with n at fixed error quality.",
        ],
    )
    for n in sizes:
        b = max(8, n // 32)
        nb = default_nb(b)
        a, _ = generate_symmetric(n, distribution="geo", cond=1e3, rng=rng)
        eng = make_engine(precision)
        res = sbr_wy(a, b, nb, engine=eng, want_q=True)
        eo = orthogonality_error(res.q)
        result.add_row(
            n=n,
            b=b,
            nb=nb,
            backward_error=backward_error(a, res.q, res.band),
            orthogonality=eo,
            Eo_times_N=eo * n,
        )
    return result


def run_evd_vectors_study(
    *,
    sizes: tuple[int, ...] = (8192, 16384, 32768),
    b: int = 128,
    nb: int = 1024,
    model: PerfModel | None = None,
) -> ExperimentResult:
    """End-to-end EVD *with eigenvectors* — beyond the paper's Fig 11.

    The paper evaluates eigenvalues only (§6.4) and measures the stage-1
    back-transformation in isolation (§4.4: 320 ms tree vs 420 ms
    forward at n = 32768).  This study composes the full with-vectors
    pipeline in the model: Q accumulation in bulge chasing (the known
    Θ(n³) price of two-stage eigenvectors), D&C with vectors, the
    back-transformations, and the larger PCIe traffic.
    """
    pm = model if model is not None else PerfModel()
    result = ExperimentResult(
        name="ablation_evd_vectors",
        title=f"2-stage EVD with eigenvectors (b={b}, nb={nb}): ours vs MAGMA",
        columns=[
            "n",
            "ours_s",
            "magma_s",
            "speedup",
            "novec_speedup",
            "back_transform_tree_s",
            "back_transform_forward_s",
        ],
        notes=[
            "The Θ(n³) bulge-chasing Q accumulation and D&C-with-vectors are "
            "shared by both pipelines, so the with-vectors speedup is smaller "
            "than Fig 11's eigenvalues-only speedup (Amdahl); the paper's "
            "§4.4 back-transform measurement is reported per method.",
        ],
    )
    for n in sizes:
        ours = pm.evd_time(n, b, nb, variant="ours", want_vectors=True).total
        magma = pm.evd_time(n, b, variant="magma", want_vectors=True).total
        ours_nv = pm.evd_time(n, b, nb, variant="ours").total
        magma_nv = pm.evd_time(n, b, variant="magma").total
        result.add_row(
            n=n,
            ours_s=ours,
            magma_s=magma,
            speedup=magma / ours,
            novec_speedup=magma_nv / ours_nv,
            back_transform_tree_s=pm.back_transform_time(n, b, nb, method="tree"),
            back_transform_forward_s=pm.back_transform_time(n, b, b, method="forward", engine="sgemm"),
        )
    return result


def run_accumulator_study(
    *,
    m: int = 256,
    k_values: tuple[int, ...] = (64, 256, 1024, 4096),
    chunks: tuple[int | None, ...] = (None, 256, 64, 16),
    seed: int = 77,
) -> ExperimentResult:
    """Accumulator-granularity study of the emulated TC-GEMM (numeric).

    A real Tensor Core rounds the FP32 accumulator once per MMA tile along
    the contraction dimension; the emulation's ``chunk_k`` exposes that
    granularity.  This study measures how the GEMM error grows with the
    contraction length and how much the chunked accumulation adds —
    confirming the emulation note in docs/numerics.md that operand
    rounding (2^-11) dominates any accumulation-order effect.
    """
    from ..precision.tcgemm import tcgemm

    rng = np.random.default_rng(seed)
    result = ExperimentResult(
        name="ablation_accumulator",
        title=f"Emulated TC-GEMM error vs contraction length and chunking (m={m})",
        columns=["k", "chunk", "rel_error", "error_over_sqrt_k"],
        notes=[
            "rel_error is measured against a float64 product, normalized by "
            "the no-cancellation scale |A||B|; growth ~sqrt(k) reflects "
            "random-walk accumulation of the operand-rounding errors, and "
            "chunking shifts it by far less than the operand term itself.",
        ],
    )
    for k in k_values:
        a = rng.standard_normal((m, k)).astype(np.float32)
        bmat = rng.standard_normal((k, m)).astype(np.float32)
        exact = a.astype(np.float64) @ bmat.astype(np.float64)
        scale = float((np.abs(a) @ np.abs(bmat)).max())
        for chunk in chunks:
            if chunk is not None and chunk >= k:
                continue
            out = tcgemm(a, bmat, chunk_k=chunk)
            err = float(np.abs(out - exact).max()) / scale
            result.add_row(
                k=k,
                chunk="none" if chunk is None else chunk,
                rel_error=err,
                error_over_sqrt_k=err / np.sqrt(k),
            )
    return result
