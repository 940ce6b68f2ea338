"""Kernel-level benchmarks of the library's own numerics.

These are not paper figures — they track the cost of the Python/NumPy
implementation itself (precision emulation overhead, panel strategies,
band-reduction drivers, tridiagonal eigensolvers) so performance
regressions in the reproduction code are visible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eig import bulge_chase, tridiag_eig_dc, tridiag_eig_ql
from repro.gemm import make_engine
from repro.la import blocked_qr, extract_band, tsqr
from repro.precision import round_fp16
from repro.precision.rounding import split_fp16_into
from repro.sbr import sbr_wy, sbr_zy
from tests.conftest import random_symmetric


@pytest.fixture
def sym256(rng):
    return random_symmetric(256, rng, dtype=np.float32)


class TestPanelKernels:
    def test_tsqr_panel(self, benchmark, rng):
        panel = rng.standard_normal((1024, 32)).astype(np.float32)
        q, r = benchmark(tsqr, panel)
        assert q.shape == (1024, 32)

    def test_blocked_qr_panel(self, benchmark, rng):
        panel = rng.standard_normal((1024, 32)).astype(np.float32)
        v, b, r = benchmark(blocked_qr, panel)
        assert r.shape == (32, 32)


class TestPrecisionKernels:
    def test_ec_split(self, benchmark, rng):
        # A trailing-block-sized operand with magnitudes spread over
        # e^-12..1, so many residuals land in FP16's subnormal range: the
        # case where NumPy's float16 cast is slowest.
        shape = (992, 736)
        x = (rng.standard_normal(shape) * np.exp(rng.uniform(-12, 0, shape)))
        x = x.astype(np.float32)
        hi, lo = np.empty_like(x), np.empty_like(x)
        benchmark(split_fp16_into, x, hi, lo)
        np.testing.assert_array_equal(hi, round_fp16(x))
        np.testing.assert_array_equal(lo, round_fp16((x - hi) * np.float32(2048)))


class TestSbrDrivers:
    @pytest.mark.parametrize("precision", ["fp32", "fp16_tc", "fp16_ec_tc"])
    def test_sbr_wy(self, benchmark, sym256, precision):
        eng = make_engine(precision)
        res = benchmark.pedantic(
            sbr_wy, args=(sym256, 16, 64), kwargs={"engine": eng, "want_q": False},
            iterations=1, rounds=3,
        )
        assert res.bandwidth == 16

    def test_sbr_wy_fp16_tc_n1024(self, benchmark, rng):
        # The paper's stage 1 at the bench's EC size on the FP16 engine:
        # OA and the block's W/Y/OAW are rounded once (prepared operands),
        # not in every GEMM that reads them.
        a = random_symmetric(1024, rng, dtype=np.float32)
        res = benchmark.pedantic(
            sbr_wy, args=(a, 32, 256),
            kwargs={"engine": make_engine("fp16_tc"), "want_q": False},
            iterations=1, rounds=3,
        )
        assert res.bandwidth == 32

    def test_sbr_zy(self, benchmark, sym256):
        res = benchmark.pedantic(
            sbr_zy, args=(sym256, 16), kwargs={"want_q": False},
            iterations=1, rounds=3,
        )
        assert res.bandwidth == 16


class TestStage2Kernels:
    def test_bulge_chase(self, benchmark, rng):
        ab = extract_band(random_symmetric(192, rng), 8)
        d, e, _ = benchmark.pedantic(
            bulge_chase, args=(ab, 8), kwargs={"want_q": False},
            iterations=1, rounds=3,
        )
        assert d.shape == (192,)

    def test_dc_solver(self, benchmark, rng):
        d = rng.standard_normal(512)
        e = rng.standard_normal(511)
        lam, v = benchmark.pedantic(
            tridiag_eig_dc, args=(d, e), iterations=1, rounds=3
        )
        assert lam.shape == (512,)

    def test_ql_solver(self, benchmark, rng):
        d = rng.standard_normal(256)
        e = rng.standard_normal(255)
        lam, _ = benchmark.pedantic(
            tridiag_eig_ql, args=(d, e), kwargs={"want_vectors": False},
            iterations=1, rounds=3,
        )
        assert lam.shape == (256,)
