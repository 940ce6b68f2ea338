"""The default guards' measurements against their explicit definitions.

``panel_orthogonality_defect`` computes ``max|Q^T Q - I|`` for the panel
factor ``Q = E - W Y_1^T`` from the identity
``Q^T Q - I = Y_1 (W^T W) Y_1^T - Y_1 W_1^T - W_1 Y_1^T`` without forming
``Q``; ``symmetry_defect`` reads its sample through a cached flat index;
``ResilienceContext.check_array`` scans several arrays in one call, each
against its own growth bound.  Each is held here to the straightforward
formulation it replaced, on the panels the band reductions factor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NumericalBreakdownError
from repro.gemm.engine import make_engine
from repro.la.reconstruct import reconstruct_wy
from repro.la.tsqr import leaf_bounds, leaf_wy, tsqr
from repro.precision.modes import Precision
from repro.resilience import (
    DetectorConfig, FaultInjector, FaultSpec, ResilienceContext,
)
from repro.resilience.detectors import (
    effective_eps, max_abs, panel_orthogonality_defect, symmetry_defect,
)

B = 8
DTYPES = {"fp32": np.float32, "fp64": np.float64}


def _explicit_defect(w, y):
    """``max|Q^T Q - I|`` with ``Q = E - W Y_1^T`` formed explicitly."""
    m, k = w.shape
    q = np.eye(m, k, dtype=w.dtype) - w @ y[:k].T
    return max_abs(q.T @ q - np.eye(k, dtype=w.dtype))


def _panel_wy(leaves, k, precision, seed):
    """``(W, Y)`` of a random m×k panel, factored as ``factor_panel`` does.

    One leaf: ``?geqrt`` and ``W = Y T``.  Two leaves: TSQR and the
    Algorithm 3 reconstruction.
    """
    rng = np.random.default_rng(seed)
    eng = make_engine(precision)
    m = 11 * B if leaves == 1 else 300
    panel = rng.standard_normal((m, k)).astype(DTYPES[precision])
    assert len(leaf_bounds(m, k)) == leaves
    if leaves == 1:
        y, t, _ = leaf_wy(panel)
        return eng.gemm(y, t), y
    q, _ = tsqr(panel, engine=eng)
    w, y, _ = reconstruct_wy(q, engine=eng)
    return w, y


PANELS = [(leaves, k, precision, seed)
          for leaves in (1, 2) for k in range(1, B + 1)
          for precision in DTYPES for seed in (0, 1)]


def _id(case):
    leaves, k, precision, seed = case
    return f"{leaves}leaf-k{k}-{precision}-s{seed}"


class TestOrthogonalityIdentity:
    @pytest.mark.parametrize("case", PANELS, ids=[_id(c) for c in PANELS])
    def test_matches_the_explicit_gram(self, case):
        _, k, precision, _ = case
        w, y = _panel_wy(*case)
        eps = float(np.finfo(DTYPES[precision]).eps)
        got, want = panel_orthogonality_defect(w, y), _explicit_defect(w, y)
        assert abs(got - want) <= 16 * k * eps, (got, want)
        # A healthy panel passes the detector's own bound.
        assert got <= DetectorConfig().orthogonality_tol(k, eps)

    @pytest.mark.parametrize("case", PANELS[::3], ids=[_id(c) for c in PANELS[::3]])
    def test_matches_the_explicit_gram_off_orthogonality(self, case):
        # A perturbed W moves the defect far above rounding level; the two
        # formulations still agree to rounding, not just both "large".
        _, k, precision, seed = case
        w, y = _panel_wy(*case)
        rng = np.random.default_rng(seed + 10)
        w = (w * (1 + 1e-3 * rng.standard_normal(w.shape))).astype(w.dtype)
        eps = float(np.finfo(DTYPES[precision]).eps)
        got, want = panel_orthogonality_defect(w, y), _explicit_defect(w, y)
        assert want > 1e-5
        assert abs(got - want) <= 16 * k * eps, (got, want)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("leaves", [1, 2])
    @pytest.mark.parametrize("precision", list(DTYPES))
    def test_non_finite_w_or_leading_y_reads_infinite(self, value, leaves, precision):
        w, y = _panel_wy(leaves, B, precision, 0)
        m = w.shape[0]
        for row, col in [(0, 0), (B - 1, 3), (m // 2, B - 1), (m - 1, 0)]:
            bad = w.copy()
            bad[row, col] = value
            assert panel_orthogonality_defect(bad, y) == np.inf, (row, col)
        for row, col in [(0, 0), (3, 1), (B - 1, B - 1)]:
            bad = y.copy()
            bad[row, col] = value
            assert panel_orthogonality_defect(w, bad) == np.inf, (row, col)

    @pytest.mark.parametrize("k", range(2, B + 1))
    @pytest.mark.parametrize("leaves", [1, 2])
    @pytest.mark.parametrize("precision", list(DTYPES))
    def test_sign_flip_in_w_exceeds_the_tolerance(self, k, leaves, precision):
        w, y = _panel_wy(leaves, k, precision, 0)
        tol = DetectorConfig().orthogonality_tol(
            k, effective_eps(Precision(precision), w, y))
        for seed in range(5):
            inj = FaultInjector(FaultSpec(site="w", kind="sign_flip",
                                          fraction=0.25, seed=seed))
            assert panel_orthogonality_defect(inj.apply("w", w), y) > tol

    def test_one_column_sign_flip_below_the_top_row_is_invisible(self):
        # With k = 1, Q's rows below the first are -W's: negating them
        # keeps Q^T Q = 1.  The invariant cannot see it, whichever way it
        # is computed, so the sign-flip case above starts at k = 2.
        w, y = _panel_wy(1, 1, "fp64", 0)
        bad = w.copy()
        bad[1::2] *= -1
        assert panel_orthogonality_defect(bad, y) < 1e-14
        assert _explicit_defect(bad, y) < 1e-14


class TestSymmetryProbe:
    @pytest.mark.parametrize("n", [2, 40, 64, 65, 96, 130, 300])
    @pytest.mark.parametrize("layout", ["C", "F", "view"])
    def test_matches_the_ix_sample(self, n, layout):
        rng = np.random.default_rng(n)
        if layout == "view":
            a = rng.standard_normal((n + 5, n + 5))[2 : n + 2, 3 : n + 3]
        else:
            a = np.asarray(rng.standard_normal((n, n)), order=layout)
        idx = np.linspace(0, n - 1, 64).astype(np.intp)
        sub = a[np.ix_(idx, idx)] if n > 64 else a
        assert symmetry_defect(a) == max_abs(sub - sub.T)
        assert symmetry_defect(a, sample=None) == max_abs(a - a.T)

    def test_nan_is_left_to_the_nonfinite_scan(self):
        a = np.ones((80, 80))
        a[5, 7] = np.nan
        a[70, 2] = 3.0
        idx = np.linspace(0, 79, 64).astype(np.intp)
        sub = a[np.ix_(idx, idx)]
        assert symmetry_defect(a) == max_abs(sub - sub.T) == 2.0


class TestOneScanPerUnit:
    def _verdict(self, ctx, *arrays, baseline):
        try:
            top = ctx.check_array(*arrays, site="s", precision=Precision.FP32,
                                  baseline=baseline)
        except NumericalBreakdownError as exc:
            return exc.detector, exc.value, exc.threshold
        return top

    @pytest.mark.parametrize("arrays", [
        (np.full(3, 5.0), np.full(3, 50.0)),      # growth, second array
        (np.full(3, 50.0), np.full(3, 5.0)),      # growth, first array
        (np.full(3, 50.0), np.full(3, 1e30)),     # growth before magnitude
        (np.full(3, 5.0), np.array([np.nan])),    # nonfinite
        (np.full(3, 5.0), np.full(3, 3.0)),       # healthy
        (np.empty((0, 2)), np.full(3, 3.0)),      # empty arrays are skipped
    ])
    @pytest.mark.parametrize("baselines", [(1.0, None), (None, 1.0), (1.0, 1.0)])
    def test_per_array_baselines_match_separate_calls(self, arrays, baselines):
        cfg = DetectorConfig(norm_growth_factor=10.0)
        ctx = ResilienceContext(detectors=cfg)
        with ctx.unit("p", panel=2):
            got = self._verdict(ctx, *arrays, baseline=baselines)
        want = None
        ref = ResilienceContext(detectors=cfg)
        with ref.unit("p", panel=2):
            tops = []
            for arr, base in zip(arrays, baselines):
                want = self._verdict(ref, arr, baseline=base)
                if isinstance(want, tuple):
                    break
                tops.append(want)
            else:
                want = max(tops)
        assert got == want
        assert ([d.to_dict() for d in ctx.report.detections]
                == [d.to_dict() for d in ref.report.detections])

    def test_returns_the_nan_ignoring_maximum(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((20, 20))
        assert ResilienceContext().check_array(a, site="s") == max_abs(a)
        a[3, 3] = np.nan
        ctx = ResilienceContext(detectors=DetectorConfig(nonfinite=False))
        assert ctx.check_array(a, site="s") == max_abs(a)

    def test_baseline_count_must_match(self):
        with pytest.raises(ValueError):
            ResilienceContext().check_array(np.ones(2), np.ones(2), site="s",
                                            baseline=(1.0,))
