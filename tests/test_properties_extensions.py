"""Property-based tests for the extension kernels (recursive QR, syr2k)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gemm import Fp64Engine
from repro.la import recursive_qr, wy_matrix


class TestRecursiveQrProperties:
    @given(
        m=st.integers(2, 48),
        n=st.integers(1, 24),
        leaf=st.integers(1, 16),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_factorization_identity(self, m, n, leaf, seed):
        if m < n:
            m, n = n, m
        a = np.random.default_rng(seed).standard_normal((m, n))
        w, y, r = recursive_qr(a, leaf_cols=leaf, engine=Fp64Engine())
        q = wy_matrix(w, y)
        assert np.allclose(q[:, :n] @ r, a, atol=1e-9)
        assert np.allclose(q.T @ q, np.eye(m), atol=1e-9)
        assert np.allclose(np.tril(r, -1), 0, atol=1e-11)


class TestSyr2kProperties:
    @given(
        m=st.integers(1, 20),
        k=st.integers(1, 10),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_syr2k_symmetric_and_correct(self, m, k, seed):
        g = np.random.default_rng(seed)
        y = g.standard_normal((m, k))
        z = g.standard_normal((m, k))
        out = Fp64Engine().syr2k(y, z)
        assert np.array_equal(out, out.T)
        assert np.allclose(out, y @ z.T + z @ y.T, atol=1e-10)

