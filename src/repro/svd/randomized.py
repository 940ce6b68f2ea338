"""Randomized low-rank factorizations (paper refs [16, 28, 40]).

The paper's related work singles out two randomized algorithms "proven
efficient on modern high-performance architectures": randomized subspace
iteration (Halko/Martinsson/Tropp; Gu 2015) and randomized block Lanczos
(Yuan, Gu & Li 2018).  Both are GEMM-dominated — exactly the workload the
Tensor-Core pipeline feeds — and both tolerate reduced precision, which is
why the paper's introduction lists them among the motivating consumers.

All orthonormalizations use the library's own QR; the projected small
eigen/SVD problems use the library's two-stage solver (float64 — they are
tiny).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, ShapeError
from ..gemm.engine import GemmEngine, PlainEngine, make_engine
from ..la.qr import qr_explicit
from ..obs import spans as obs
from ..precision.modes import Precision
from ..validation import as_symmetric_matrix

__all__ = ["randomized_svd", "randomized_eig", "block_lanczos_eig", "low_rank_approx"]


def _validate_rank(k: int, limit: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1 or k > limit:
        raise ShapeError(f"rank k must be an int in [1, {limit}], got {k!r}")


def randomized_svd(
    a,
    k: int,
    *,
    oversample: int = 10,
    power_iterations: int = 2,
    engine: "GemmEngine | Precision | str | None" = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-k randomized SVD by subspace iteration.

    Parameters
    ----------
    a : array_like (m, n)
        Input matrix.
    k : int
        Target rank.
    oversample : int
        Extra sketch columns (Halko et al. recommend 5–10).
    power_iterations : int
        Power (subspace) iterations; 1–2 sharpen the spectrum decay.
    engine : GemmEngine, Precision, or str, optional
        Precision policy for the big GEMMs (default: operand precision).

    Returns
    -------
    (u, s, vt) : rank-k factors, singular values descending.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ShapeError(f"randomized_svd requires a 2-D matrix, got {a.shape}")
    m, n = a.shape
    _validate_rank(k, min(m, n))
    eng = _resolve_engine(engine)
    if rng is None:
        rng = np.random.default_rng()

    ell = min(k + oversample, n)
    with obs.span("randomized_svd", m=m, n=n, k=k, ell=ell):
        with obs.span("rand.sketch"):
            sketch = eng.gemm(a, rng.standard_normal((n, ell)), tag="rand_sketch")
            q, _ = qr_explicit(sketch, engine=eng)
        with obs.span("rand.power", iterations=power_iterations):
            for _ in range(power_iterations):
                q, _ = qr_explicit(eng.gemm(a.T, q, tag="rand_power"), engine=eng)
                q, _ = qr_explicit(eng.gemm(a, q, tag="rand_power"), engine=eng)

        # Small projected problem, solved exactly.
        with obs.span("rand.project_solve"):
            b = eng.gemm(q.T, a, tag="rand_project")
            ub, s, vt = np.linalg.svd(
                np.asarray(b, dtype=np.float64), full_matrices=False
            )
            u = np.asarray(q, dtype=np.float64) @ ub
    return u[:, :k], s[:k], vt[:k, :]


def randomized_eig(
    a,
    k: int,
    *,
    oversample: int = 10,
    power_iterations: int = 2,
    engine: "GemmEngine | Precision | str | None" = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs (by magnitude) of a symmetric matrix, randomized.

    Returns ``(lam, v)`` with ``|lam|`` descending; exact for matrices of
    rank <= k + oversample.
    """
    a = as_symmetric_matrix(a, dtype=np.float64)
    n = a.shape[0]
    _validate_rank(k, n)
    eng = _resolve_engine(engine)
    if rng is None:
        rng = np.random.default_rng()

    ell = min(k + oversample, n)
    with obs.span("randomized_eig", n=n, k=k, ell=ell):
        with obs.span("rand.sketch"):
            q, _ = qr_explicit(
                eng.gemm(a, rng.standard_normal((n, ell)), tag="rand_sketch"),
                engine=eng,
            )
        with obs.span("rand.power", iterations=power_iterations):
            for _ in range(power_iterations):
                q, _ = qr_explicit(eng.gemm(a, q, tag="rand_power"), engine=eng)

        with obs.span("rand.project_solve"):
            t = np.asarray(
                eng.gemm(q.T, eng.gemm(a, q, tag="rand_project"), tag="rand_project"),
                dtype=np.float64,
            )
            lam, u = np.linalg.eigh((t + t.T) / 2.0)
            order = np.argsort(np.abs(lam))[::-1][:k]
    return lam[order], np.asarray(q, dtype=np.float64) @ u[:, order]


def block_lanczos_eig(
    a,
    k: int,
    *,
    block_size: int | None = None,
    n_blocks: int = 4,
    engine: "GemmEngine | Precision | str | None" = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs by randomized block Lanczos (paper ref [40]).

    Builds the block Krylov basis ``[Q_0, A Q_0, ..., A^{q-1} Q_0]`` with
    full reorthogonalization, projects, and solves the small problem —
    superlinearly more accurate than subspace iteration for the same
    number of matrix products.

    Returns ``(lam, v)`` with ``|lam|`` descending.
    """
    a = as_symmetric_matrix(a, dtype=np.float64)
    n = a.shape[0]
    _validate_rank(k, n)
    if n_blocks < 1:
        raise ConfigurationError(f"n_blocks must be >= 1, got {n_blocks}")
    eng = _resolve_engine(engine)
    if rng is None:
        rng = np.random.default_rng()
    if block_size is None:
        block_size = max(k // 2, 4)
    block_size = min(block_size, n)

    with obs.span("block_lanczos_eig", n=n, k=k, block_size=block_size, n_blocks=n_blocks):
        with obs.span("lanczos.basis"):
            q, _ = qr_explicit(rng.standard_normal((n, block_size)), engine=eng)
            basis = [np.asarray(q, dtype=np.float64)]
            for _ in range(n_blocks - 1):
                w = np.asarray(
                    eng.gemm(a, basis[-1], tag="lanczos_matvec"), dtype=np.float64
                )
                # Full reorthogonalization against all previous blocks (twice).
                for _pass in range(2):
                    for qb in basis:
                        w -= qb @ (qb.T @ w)
                nrm = np.linalg.norm(w, axis=0)
                keep = nrm > 1e-12 * max(float(nrm.max(initial=0.0)), 1.0)
                if not np.any(keep):
                    break
                qb, _ = qr_explicit(w[:, keep], engine=PlainEngine())
                basis.append(np.asarray(qb, dtype=np.float64))
            qq = np.hstack(basis)
        if qq.shape[1] < k:
            raise ConfigurationError(
                f"Krylov basis rank {qq.shape[1]} < k={k}; increase block_size/n_blocks"
            )

        with obs.span("lanczos.project_solve"):
            t = qq.T @ a @ qq
            lam, u = np.linalg.eigh((t + t.T) / 2.0)
            order = np.argsort(np.abs(lam))[::-1][:k]
    return lam[order], qq @ u[:, order]


def low_rank_approx(
    a,
    k: int,
    *,
    method: str = "randomized",
    **kwargs,
) -> np.ndarray:
    """Best-effort rank-k approximation of ``a``.

    ``method="randomized"`` uses :func:`randomized_svd`;
    ``method="evd"`` (symmetric input) truncates :func:`randomized_eig`'s
    exhaustive cousin via the full two-stage eigensolver.
    """
    if method == "randomized":
        u, s, vt = randomized_svd(a, k, **kwargs)
        return (u * s) @ vt
    if method == "evd":
        from ..eig.driver import syevd_2stage

        res = syevd_2stage(a, **kwargs) if kwargs else syevd_2stage(a, b=8)
        lam, v = res.eigenvalues, res.eigenvectors
        order = np.argsort(np.abs(lam))[::-1][:k]
        vk = np.asarray(v[:, order], dtype=np.float64)
        return (vk * lam[order]) @ vk.T
    raise ConfigurationError(f"method must be 'randomized' or 'evd', got {method!r}")


def _resolve_engine(engine) -> GemmEngine:
    if engine is None:
        return PlainEngine()
    if isinstance(engine, GemmEngine):
        return engine
    return make_engine(engine)
