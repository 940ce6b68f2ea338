"""Property-based tests (hypothesis) on core kernels and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.eig import sturm_count, tridiag_eig_dc
from repro.gemm import Fp64Engine
from repro.gemm.symbolic import is_algorithm_tag, trace_sbr_wy, trace_sbr_zy
from repro.la import (
    build_wy,
    householder_qr,
    make_reflector,
    reconstruct_wy,
    reflector_matrix,
    tridiag_to_dense,
    tsqr,
    wy_matrix,
)
from repro.precision import ec_tcgemm, round_fp16, split_fp16
from repro.sbr import sbr_wy, sbr_zy

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False, width=64
)


def _vec(n_min=1, n_max=24):
    return st.integers(n_min, n_max).flatmap(
        lambda n: arrays(np.float64, (n,), elements=finite_floats)
    )


class TestReflectorProperties:
    @given(x=_vec(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_reflector_annihilates_and_preserves_norm(self, x):
        v, beta, alpha = make_reflector(x)
        h = reflector_matrix(v, beta)
        hx = h @ x
        assert np.allclose(hx[1:], 0, atol=1e-9 * max(1.0, np.linalg.norm(x)))
        assert np.isclose(np.linalg.norm(hx), np.linalg.norm(x), rtol=1e-9, atol=1e-12)
        assert np.isclose(abs(alpha), np.linalg.norm(x), rtol=1e-9, atol=1e-12)

    @given(x=_vec(2, 32))
    @settings(max_examples=60, deadline=None)
    def test_reflector_involution(self, x):
        v, beta, _ = make_reflector(x)
        h = reflector_matrix(v, beta)
        assert np.allclose(h @ h, np.eye(x.size), atol=1e-10)


class TestQrProperties:
    @given(
        m=st.integers(2, 40),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_qr_identity_and_orthogonality(self, m, n, seed):
        if m < n:
            m, n = n, m
        if m == 0 or n == 0:
            return
        a = np.random.default_rng(seed).standard_normal((m, n))
        v, b, r = householder_qr(a)
        w, y = build_wy(v, b)
        q = wy_matrix(w, y)
        assert np.allclose(q[:, :n] @ r, a, atol=1e-9)
        assert np.allclose(q.T @ q, np.eye(m), atol=1e-10)

    @given(
        m=st.integers(4, 120),
        n=st.integers(1, 8),
        leaf_mult=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_tsqr_reconstruct_roundtrip(self, m, n, leaf_mult, seed):
        if m < n:
            return
        a = np.random.default_rng(seed).standard_normal((m, n))
        leaf = max(leaf_mult * n, 8)
        q, r = tsqr(a, leaf_rows=leaf, engine=Fp64Engine())
        w, y, s = reconstruct_wy(q, engine=Fp64Engine())
        q_full = wy_matrix(w, y)
        assert np.allclose(q_full[:, :n] @ (s[:, None] * r), a, atol=1e-8)
        assert np.allclose(q_full.T @ q_full, np.eye(m), atol=1e-9)


class TestPrecisionProperties:
    @given(x=_vec(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_split_reconstructs(self, x):
        x32 = x.astype(np.float32)
        hi, lo = split_fp16(x32)
        recon = hi.astype(np.float64) + lo.astype(np.float64) / 2.0**11
        scale = np.maximum(np.abs(x32), 2.0**-14)
        assert np.all(np.abs(recon - x32) / scale < 2.0**-18)

    @given(x=_vec(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_fp16_rounding_idempotent_and_monotone(self, x):
        x32 = x.astype(np.float32)
        r = round_fp16(x32)
        assert np.array_equal(r, round_fp16(r))
        order = np.argsort(x32, kind="stable")
        assert np.all(np.diff(r[order]) >= 0)

    @given(
        m=st.integers(1, 12), k=st.integers(1, 12), n=st.integers(1, 12),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_ec_tcgemm_fp32_grade(self, m, k, n, seed):
        g = np.random.default_rng(seed)
        a = g.standard_normal((m, k)).astype(np.float32)
        b = g.standard_normal((k, n)).astype(np.float32)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        # Normalize by the no-cancellation magnitude sum |A||B| — the
        # backward-error scale; the result itself may cancel to ~0.
        scale = max(float((np.abs(a) @ np.abs(b)).max()), 1e-6)
        assert float(np.abs(ec_tcgemm(a, b) - exact).max()) / scale < 1e-5


class TestSturmProperties:
    @given(
        n=st.integers(1, 30),
        seed=st.integers(0, 2**31),
        x=st.floats(-10, 10, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_equals_spectrum_count(self, n, seed, x):
        g = np.random.default_rng(seed)
        d = g.standard_normal(n)
        e = g.standard_normal(max(n - 1, 0))
        ref = np.linalg.eigvalsh(tridiag_to_dense(d, e))
        # Stay off exact eigenvalues (measure-zero, but be safe).
        if np.min(np.abs(ref - x), initial=np.inf) < 1e-9:
            return
        assert int(sturm_count(d, e, x)) == int(np.sum(ref < x))


class TestDcProperties:
    @given(n=st.integers(1, 60), seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_dc_matches_numpy(self, n, seed):
        g = np.random.default_rng(seed)
        d = g.standard_normal(n)
        e = g.standard_normal(max(n - 1, 0))
        lam, v = tridiag_eig_dc(d, e)
        t = tridiag_to_dense(d, e)
        assert np.allclose(lam, np.linalg.eigvalsh(t), atol=1e-10)
        assert np.allclose(v.T @ v, np.eye(n), atol=1e-10)


class TestSbrProperties:
    @given(
        n=st.integers(6, 48),
        b=st.integers(1, 8),
        nb_mult=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_wy_band_preserves_spectrum(self, n, b, nb_mult, seed):
        if b >= n or b * nb_mult > n:
            return
        g = np.random.default_rng(seed)
        a = g.standard_normal((n, n))
        a = (a + a.T) / 2
        res = sbr_wy(a, b, b * nb_mult, engine=Fp64Engine(), want_q=False)
        assert np.allclose(
            np.linalg.eigvalsh(res.band), np.linalg.eigvalsh(a), atol=1e-9
        )

    @given(
        n=st.integers(6, 48),
        b=st.integers(1, 8),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_zy_backward_stable(self, n, b, seed):
        if b >= n:
            return
        g = np.random.default_rng(seed)
        a = g.standard_normal((n, n))
        a = (a + a.T) / 2
        res = sbr_zy(a, b, engine=Fp64Engine(), want_q=True)
        resid = a - res.q @ res.band @ res.q.T
        assert float(np.abs(resid).max()) < 1e-10 * max(1.0, float(np.abs(a).max()))

    @given(
        n=st.integers(6, 64),
        b=st.integers(1, 8),
        nb_mult=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_symbolic_traces_flop_relation(self, n, b, nb_mult):
        nb = b * nb_mult
        if b >= n or nb > n:
            return
        wy = trace_sbr_wy(n, b, nb, want_q=False)
        zy = trace_sbr_zy(n, b, want_q=False)
        # Every record carries an algorithm-level tag.
        assert all(is_algorithm_tag(r.tag) for r in wy)
        assert all(is_algorithm_tag(r.tag) for r in zy)
        # Table 2 direction — WY does more work — holds once the deferred
        # window is real (nb > b) and the matrix spans several windows;
        # tiny degenerate cases can tip the other way by small constants.
        if nb >= 2 * b and n >= 4 * nb:
            assert wy.total_flops >= zy.total_flops
