"""Batching coalescer: pack same-shape small requests into one EVD stack.

Small EVDs are launch-bound, not flop-bound — the fix the paper's
tensor-core pipeline applies everywhere is the same one that helps here:
fewer, fatter GEMM launches.  The coalescer groups same-shape
eigenvalue+vector requests that opted in (``coalescible=True``) and runs
them as a stack: per-matrix LAPACK ``?sytrd`` tridiagonalization and
``stevd`` divide & conquer tridiagonal solve (the drivers' default),
then **one** ``gemm_batched`` call for the back-transform
``X_i = Q1_i @ Vtri_i`` — the dominant O(n^3) step — through the
shared engine, so the batch lands in the perf model, the GEMM
telemetry stream, and the live registry as a single batched launch.
"""

from __future__ import annotations

import numpy as np

from ..eig.dc import tridiag_eig_dc
from ..eig.tridiag_direct import householder_tridiagonalize
from ..gemm.engine import make_engine
from ..obs import spans as obs
from ..validation import Validated

__all__ = ["Coalescer", "evd_stack"]


def evd_stack(mats, *, engine=None, want_vectors: bool = True):
    """Eigendecompose a stack of same-shape symmetric float64 matrices.

    Returns a list of ``(eigenvalues, eigenvectors_or_None)`` aligned
    with ``mats``.  All matrices must share one shape; the back-transform
    runs as a single ``gemm_batched`` launch.  The service validated each
    matrix at submission, so nothing here checks them again.
    """
    mats = [np.asarray(m, dtype=np.float64) for m in mats]
    if not mats:
        return []
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ValueError(
                f"coalesced stack must share one shape, got {m.shape} != {(n, n)}"
            )
    eng = engine if engine is not None else make_engine("fp64")
    with obs.span("serve.evd_stack", batch=len(mats), n=n):
        lams, q1s, vts = [], [], []
        for m in mats:
            d, e, q1 = householder_tridiagonalize(Validated(m), want_q=want_vectors)
            lam, v_tri = tridiag_eig_dc(d, e, want_vectors=want_vectors)
            lams.append(lam)
            q1s.append(q1)
            vts.append(v_tri)
        if not want_vectors:
            return [(lam, None) for lam in lams]
        xs = eng.gemm_batched(
            np.stack(q1s), np.stack(vts), tag="serve_batched_back"
        )
        return [
            (lam, np.ascontiguousarray(xs[i])) for i, lam in enumerate(lams)
        ]


class Coalescer:
    """Greedy same-shape batcher over the pending queue.

    When a worker dequeues a coalescible job, it asks the coalescer for
    companions: up to ``max_batch - 1`` further *queued* jobs with the
    same matrix shape, vector flag, and priority-compatible deadline
    slack.  Matching is deliberately conservative — a batch ties the
    jobs' fates together, so only jobs that would make the same
    latency/fidelity trade ride along.
    """

    def __init__(self, *, max_batch: int = 8, max_n: int = 128) -> None:
        if max_batch < 2:
            raise ValueError(f"max_batch must be >= 2, got {max_batch}")
        self.max_batch = max_batch
        self.max_n = max_n

    def eligible(self, job) -> bool:
        return (
            job.spec.coalescible
            and not job.spec.checkpointed
            and job.spec.a.shape[0] <= self.max_n
        )

    def companions(self, queue, lead) -> list:
        """Pop queued jobs batchable with ``lead`` (may be empty)."""
        if not self.eligible(lead):
            return []
        shape = lead.spec.a.shape

        def match(job) -> bool:
            return (
                self.eligible(job)
                and job.spec.a.shape == shape
                and job.want_vectors == lead.want_vectors
                and not job.past_deadline
            )

        return queue.take_matching(match, limit=self.max_batch - 1)
