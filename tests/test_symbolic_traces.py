"""Fidelity tests: symbolic shape traces vs the numeric drivers' records.

These are the load-bearing tests for the performance figures: every model
time in Figures 5–11 is computed from symbolic traces, which must equal —
shape for shape, tag for tag — what the numeric algorithms actually issue.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gemm import Fp64Engine
from repro.gemm.symbolic import (
    ALGORITHM_TAGS,
    is_algorithm_tag,
    trace_form_q,
    trace_sbr_wy,
    trace_sbr_zy,
)
from repro.sbr import sbr_wy, sbr_zy
from tests.conftest import random_symmetric


def _recorded_algorithm_trace(engine):
    return engine.trace.filter(lambda r: is_algorithm_tag(r.tag))


class TestZyTraceFidelity:
    @pytest.mark.parametrize("n,b", [(64, 8), (96, 16), (100, 8), (63, 8), (40, 40)])
    @pytest.mark.parametrize("want_q", [False, True])
    def test_matches_recorded(self, rng, n, b, want_q):
        a = random_symmetric(n, rng)
        eng = Fp64Engine(record=True)
        sbr_zy(a, b, engine=eng, want_q=want_q)
        rec = _recorded_algorithm_trace(eng)
        sym = trace_sbr_zy(n, b, want_q=want_q)
        assert rec.shape_multiset_by_tag() == sym.shape_multiset_by_tag()

    def test_flops_match(self, rng):
        n, b = 80, 8
        a = random_symmetric(n, rng)
        eng = Fp64Engine(record=True)
        sbr_zy(a, b, engine=eng, want_q=False)
        assert _recorded_algorithm_trace(eng).total_flops == trace_sbr_zy(n, b, want_q=False).total_flops


class TestWyTraceFidelity:
    @pytest.mark.parametrize(
        "n,b,nb",
        [
            (64, 8, 16),
            (96, 8, 32),
            (128, 16, 64),
            (100, 8, 32),   # non-divisible tail
            (63, 8, 24),    # odd size
            (96, 16, 96),   # nb spanning most of the matrix
            (48, 8, 8),     # nb == b degenerate
        ],
    )
    @pytest.mark.parametrize("want_q", [False, True])
    def test_matches_recorded(self, rng, n, b, nb, want_q):
        a = random_symmetric(n, rng)
        eng = Fp64Engine(record=True)
        sbr_wy(a, b, nb, engine=eng, want_q=want_q)
        rec = _recorded_algorithm_trace(eng)
        sym = trace_sbr_wy(n, b, nb, want_q=want_q, mirror=True)
        assert rec.shape_multiset_by_tag() == sym.shape_multiset_by_tag()

    def test_forward_q_method(self, rng):
        n, b, nb = 64, 8, 32
        a = random_symmetric(n, rng)
        eng = Fp64Engine(record=True)
        sbr_wy(a, b, nb, engine=eng, want_q=True, q_method="forward")
        rec = _recorded_algorithm_trace(eng)
        sym = trace_sbr_wy(n, b, nb, want_q=True, q_method="forward", mirror=True)
        assert rec.shape_multiset_by_tag() == sym.shape_multiset_by_tag()


class TestTraceStructure:
    def test_zy_tags(self):
        tags = set(trace_sbr_zy(128, 16).tags())
        assert {"zy_aw", "zy_wtaw", "zy_z", "zy_zyt", "zy_yzt"} <= tags

    def test_wy_tags(self):
        tags = set(trace_sbr_wy(256, 16, 64).tags())
        assert {"wy_oaw", "wy_right", "wy_left", "wy_full_right", "wy_full_left", "form_w"} <= tags

    def test_wy_inner_dims_grow_with_nb(self):
        # The whole point of Algorithm 1: the full-update contraction
        # dimension equals nb, not b.
        for nb in (32, 64, 128):
            tr = trace_sbr_wy(512, 16, nb, want_q=False)
            fulls = tr.by_tag("wy_full_right")
            assert all(r.k == nb for r in fulls[: len(fulls) - 1])

    def test_zy_inner_dims_fixed_at_b(self):
        tr = trace_sbr_zy(512, 16, want_q=False)
        for r in tr.by_tag("zy_zyt"):
            assert r.k <= 16

    def test_algorithm_tags_frozen(self):
        assert "zy_aw" in ALGORITHM_TAGS
        assert not is_algorithm_tag("panel_tsqr")
        assert not is_algorithm_tag("qr_trailing")

    def test_trace_form_q_methods_flop_ordering(self):
        blocks = [(16, 16), (32, 16), (48, 16), (64, 16)]
        tree = trace_form_q(128, blocks, method="tree")
        fwd = trace_form_q(128, blocks, method="forward")
        assert tree.total_flops > 0 and fwd.total_flops > 0

    def test_trace_form_q_empty(self):
        assert len(trace_form_q(64, [])) == 0

    def test_trace_form_q_bad_method(self):
        with pytest.raises(ConfigurationError):
            trace_form_q(64, [(8, 8)], method="sideways")

    def test_invalid_blocksizes(self):
        with pytest.raises(Exception):
            trace_sbr_wy(64, 8, 20)  # nb not multiple of b

    def test_wy_flops_exceed_zy_flops(self):
        n, b = 2048, 32
        assert trace_sbr_wy(n, b, 256, want_q=False).total_flops > trace_sbr_zy(n, b, want_q=False).total_flops


class TestWavefrontTraceFidelity:
    """The modeled stage-2 trace's tags stay registered algorithm tags."""

    def test_wavefront_tags_registered(self):
        from repro.gemm.symbolic import trace_bulge_wavefront

        tags = {r.tag for r in trace_bulge_wavefront(64, 8).records}
        assert "bulge.wavefront.left" in tags and "bulge.wavefront.syr2k" in tags
        assert all(is_algorithm_tag(t) for t in tags)
