"""Tests for recursive W formation (Algorithm 2) and Q assembly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.gemm import Fp64Engine, SgemmEngine, make_engine
from repro.la import build_wy, householder_qr, wy_matrix
from repro.sbr import WYBlock, form_q_from_blocks, form_wy_tree
from repro.perf import Workspace
from repro.sbr.wy import sbr_wy
from tests.conftest import random_symmetric


def _random_wy(m, k, rng):
    v, b, _ = householder_qr(rng.standard_normal((m, k)))
    return build_wy(v, b)


class TestFormWyTree:
    @pytest.mark.parametrize("blocks", [1, 2, 3, 5, 8])
    def test_tree_equals_sequential_product(self, rng, blocks):
        m = 24
        pairs = [_random_wy(m, 3, rng) for _ in range(blocks)]
        w, y = form_wy_tree(pairs, engine=Fp64Engine())
        expected = np.eye(m)
        for wp, yp in pairs:
            expected = expected @ wy_matrix(wp, yp)
        np.testing.assert_allclose(wy_matrix(w, y), expected, atol=1e-12)

    def test_column_count(self, rng):
        pairs = [_random_wy(16, 2, rng), _random_wy(16, 3, rng)]
        w, y = form_wy_tree(pairs, engine=Fp64Engine())
        assert w.shape == (16, 5) and y.shape == (16, 5)

    def test_empty_list(self):
        with pytest.raises(ShapeError):
            form_wy_tree([])

    def test_mismatched_rows(self, rng):
        with pytest.raises(ShapeError):
            form_wy_tree([_random_wy(16, 2, rng), _random_wy(12, 2, rng)])

    def test_records_merge_gemms(self, rng):
        eng = Fp64Engine(record=True)
        form_wy_tree([_random_wy(16, 2, rng) for _ in range(4)], engine=eng)
        assert eng.trace.tags()["formw"] == 2 * 3  # 3 merges, 2 GEMMs each


class TestFormQFromBlocks:
    def _blocks(self, rng):
        w1, y1 = _random_wy(24, 4, rng)
        w2, y2 = _random_wy(16, 4, rng)
        return [WYBlock(offset=8, w=w1, y=y1), WYBlock(offset=16, w=w2, y=y2)]

    def _expected(self, blocks, n):
        q = np.eye(n)
        for blk in blocks:
            emb = np.eye(n)
            emb[blk.offset :, blk.offset :] = wy_matrix(
                blk.w.astype(np.float64), blk.y.astype(np.float64)
            )
            q = q @ emb
        return q

    @pytest.mark.parametrize("method", ["tree", "forward"])
    def test_assembly(self, rng, method):
        blocks = self._blocks(rng)
        q = form_q_from_blocks(blocks, 32, engine=Fp64Engine(), method=method, dtype=np.float64)
        np.testing.assert_allclose(q, self._expected(blocks, 32), atol=1e-12)

    def test_methods_agree(self, rng):
        blocks = self._blocks(rng)
        q1 = form_q_from_blocks(blocks, 32, engine=Fp64Engine(), method="tree", dtype=np.float64)
        q2 = form_q_from_blocks(blocks, 32, engine=Fp64Engine(), method="forward", dtype=np.float64)
        np.testing.assert_allclose(q1, q2, atol=1e-12)

    def test_empty_blocks_gives_identity(self):
        np.testing.assert_array_equal(form_q_from_blocks([], 8, dtype=np.float64), np.eye(8))

    def test_bad_method(self, rng):
        with pytest.raises(ShapeError):
            form_q_from_blocks(self._blocks(rng), 32, method="diagonal")

    def test_orthogonality(self, rng):
        q = form_q_from_blocks(self._blocks(rng), 32, engine=Fp64Engine(), dtype=np.float64)
        np.testing.assert_allclose(q.T @ q, np.eye(32), atol=1e-12)

    def test_back_transformation_flops_favor_tree(self, rng):
        # The paper's §4.4 rationale: tree formation squeezes GEMMs.  At the
        # trace level, the tree produces fewer, larger GEMMs than forward
        # accumulation applied block by block.
        a = random_symmetric(96, rng)
        eng_tree = Fp64Engine(record=True)
        sbr_wy(a, 8, 32, engine=eng_tree, want_q=True, q_method="tree")
        eng_fwd = Fp64Engine(record=True)
        sbr_wy(a, 8, 32, engine=eng_fwd, want_q=True, q_method="forward")
        n_tree = len(eng_tree.trace.by_tag("form_q")) + len(eng_tree.trace.by_tag("formw"))
        n_fwd = len(eng_fwd.trace.by_tag("form_q"))
        assert n_tree <= n_fwd + 2


def _recursive_wy(pairs, lo, hi, eng):
    """Algorithm 2 as zero-padded pairs merged by ``hstack`` (the oracle)."""
    if hi - lo == 1:
        return pairs[lo]
    mid = (lo + hi) // 2
    w_l, y_l = _recursive_wy(pairs, lo, mid, eng)
    w_r, y_r = _recursive_wy(pairs, mid, hi, eng)
    ylt_wr = eng.gemm(y_l.T, w_r, tag="formw")
    w_new = w_r - eng.gemm(w_l, ylt_wr, tag="formw")
    return np.hstack([w_l, w_new]), np.hstack([y_l, y_r])


def _recursive_form_q(blocks, n, eng, dtype):
    """Tree Q assembly with per-block padded pairs and ``I - W Y^T``."""
    q = np.eye(n, dtype=dtype)
    base = min(blk.offset for blk in blocks)
    pairs = []
    for blk in blocks:
        w = np.zeros((n - base, blk.ncols), dtype=dtype)
        y = np.zeros((n - base, blk.ncols), dtype=dtype)
        w[blk.offset - base:] = blk.w.astype(dtype, copy=False)
        y[blk.offset - base:] = blk.y.astype(dtype, copy=False)
        pairs.append((w, y))
    w_all, y_all = _recursive_wy(pairs, 0, len(pairs), eng)
    q[base:, base:] -= eng.gemm(w_all, y_all.T, tag="form_q")
    return q


class TestFormQInPlace:
    """The in-place assembly is bitwise the padded-pair recursion."""

    @pytest.mark.parametrize("n", [96, 200])
    @pytest.mark.parametrize("precision", [
        "fp32", "fp64", "fp16_tc", "bf16_tc", "tf32_tc", "fp16_ec_tc",
    ])
    def test_bitwise_equal_to_the_recursion(self, rng, n, precision):
        a = random_symmetric(n, rng)
        res = sbr_wy(a, 8, 32, engine=make_engine(precision), want_q=False)
        dtype = make_engine(precision).working_dtype
        # The driver lends the engine its arena: prepared and per-launch
        # splits then go through it.
        got_eng = make_engine(precision, record=True, workspace=Workspace())
        want_eng = make_engine(precision, record=True, workspace=Workspace())
        got = form_q_from_blocks(res.blocks, n, engine=got_eng, dtype=dtype)
        want = _recursive_form_q(res.blocks, n, want_eng, dtype)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert [r.to_dict() for r in got_eng.trace] == [
            r.to_dict() for r in want_eng.trace]

    @pytest.mark.parametrize("engine,dtype", [
        (Fp64Engine, np.float32),  # an engine escalated past Q's dtype
        (SgemmEngine, np.float64),
    ])
    def test_mixed_engine_and_storage_dtypes(self, rng, engine, dtype):
        a = random_symmetric(128, rng)
        blocks = sbr_wy(a, 8, 32, engine=make_engine("fp32"), want_q=False).blocks
        got = form_q_from_blocks(blocks, 128, engine=engine(), dtype=dtype)
        want = _recursive_form_q(blocks, 128, engine(), dtype)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_exact_zeros_keep_their_sign(self, rng):
        # A diagonal input leaves the panels zero, so W Y^T has exact
        # zeros, which I - W Y^T holds as +0.
        a = np.diag(rng.standard_normal(96))
        blocks = sbr_wy(a, 8, 32, engine=make_engine("fp32"), want_q=False).blocks
        got = form_q_from_blocks(blocks, 96, engine=SgemmEngine())
        want = _recursive_form_q(blocks, 96, SgemmEngine(), np.float32)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [5, 100])
    def test_tree_of_pairs_is_bitwise_the_recursion(self, rng, count):
        pairs = [_random_wy(24, 3, rng) for _ in range(count)]
        w, y = form_wy_tree(pairs, engine=Fp64Engine())
        w0, y0 = _recursive_wy(pairs, 0, count, Fp64Engine())
        assert w.tobytes() == w0.tobytes() and y.tobytes() == y0.tobytes()
