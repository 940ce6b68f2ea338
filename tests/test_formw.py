"""Tests for recursive W formation (Algorithm 2) and Q assembly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.gemm import Fp64Engine
from repro.la import build_wy, householder_qr, wy_matrix
from repro.sbr import WYBlock, form_q_from_blocks, form_wy_tree
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
