"""Benchmarks for the extension solvers (refinement, SVD routes, QDWH,
LOBPCG, bulge chase at b=16).

Library-performance tracking, with the key quality assertions inline:
refinement reaches float64 from a Tensor-Core start, the SVD routes match
LAPACK, and QDWH converges in its hallmark handful of iterations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eig import lobpcg, qdwh_eig, qdwh_polar
from repro.matrices import generate_symmetric
from repro.metrics import eigenvalue_error
from repro.refine import refined_syevd
from repro.svd import randomized_svd, svd_direct
from tests.conftest import random_symmetric


def test_refined_syevd(benchmark):
    rng = np.random.default_rng(5)
    a, lam_true = generate_symmetric(160, distribution="geo", cond=1e3, rng=rng)
    res = benchmark.pedantic(
        refined_syevd, args=(a,),
        kwargs={"b": 8, "nb": 32, "precision": "fp16_tc", "refine_iterations": 2},
        iterations=1, rounds=3,
    )
    assert eigenvalue_error(lam_true, res.eigenvalues) < 1e-11


def test_svd_direct(benchmark, rng):
    a = rng.standard_normal((160, 96))
    u, s, vt = benchmark.pedantic(svd_direct, args=(a,), iterations=1, rounds=3)
    s_ref = np.linalg.svd(a, compute_uv=False)
    assert float(np.abs(s - s_ref).max()) < 1e-9


def test_randomized_svd(benchmark, rng):
    a = rng.standard_normal((400, 60)) @ rng.standard_normal((60, 300))
    u, s, vt = benchmark.pedantic(
        randomized_svd, args=(a, 60), kwargs={"rng": rng}, iterations=1, rounds=3
    )
    assert np.linalg.norm(a - (u * s) @ vt) / np.linalg.norm(a) < 1e-8


def test_qdwh_polar(benchmark, rng):
    u0, _ = np.linalg.qr(rng.standard_normal((128, 128)))
    a = (u0 * np.geomspace(1, 1e-10, 128)) @ u0.T
    u, h, its = benchmark.pedantic(qdwh_polar, args=(a,), iterations=1, rounds=3)
    assert its <= 7


def test_qdwh_eig(benchmark, rng):
    a = random_symmetric(96, rng)
    lam, v = benchmark.pedantic(qdwh_eig, args=(a,), iterations=1, rounds=3)
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(a), atol=1e-10)


def test_lobpcg_largest(benchmark):
    rng = np.random.default_rng(11)
    a, lam_true = generate_symmetric(256, distribution="geo", cond=1e4,
                                     signs="positive", rng=rng)
    lam, x, its = benchmark.pedantic(
        lobpcg, args=(a, 5), kwargs={"largest": True, "rng": rng},
        iterations=1, rounds=3,
    )
    assert np.abs(lam - lam_true[-5:]).max() < 1e-7


def test_bulge_chase_b16(benchmark, rng):
    from repro.eig import bulge_chase
    from repro.la import extract_band

    ab = extract_band(random_symmetric(256, rng), 16)
    d, e, _ = benchmark.pedantic(
        bulge_chase, args=(ab, 16), kwargs={"want_q": False},
        iterations=1, rounds=3,
    )
    assert d.shape == (256,)
