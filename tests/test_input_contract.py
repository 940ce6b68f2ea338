"""The input contract: one relative symmetry rule, checked once per call.

Every public entry point that takes a symmetric matrix runs
:func:`repro.validation.as_symmetric_matrix` exactly once: shape, then
finiteness, then symmetry within ``sqrt(u) * max|A|`` for the caller's
dtype, then an exact mirror of the lower triangle.  The rule is relative,
so the verdict must not depend on the scale of ``A``.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro import validation
from repro.eig.bulge import bulge_chase
from repro.eig.driver import syevd_1stage, syevd_2stage, syevd_selected
from repro.eig.tridiag_direct import householder_tridiagonalize
from repro.errors import (
    NotSymmetricError,
    NumericalBreakdownError,
    ReproError,
    ShapeError,
    ValidationError,
)
from repro.sbr.wy import sbr_wy
from repro.sbr.zy import sbr_zy
from repro.serve import EvdService
from repro.validation import as_symmetric_matrix

N = 16

ENTRY_POINTS = {
    "syevd_2stage": lambda a: syevd_2stage(a, b=4, nb=8, precision="fp64"),
    "syevd_1stage": syevd_1stage,
    "syevd_selected": lambda a: syevd_selected(
        a, select=(0, 2), b=4, nb=8, precision="fp64"),
    "sbr_wy": lambda a: sbr_wy(a, 4, 8),
    "sbr_zy": lambda a: sbr_zy(a, 4),
    "bulge_chase": lambda a: bulge_chase(a, N - 1),
    "householder_tridiagonalize": householder_tridiagonalize,
    "serve_submit": None,  # EvdService.submit on the module's service
}

SCALES = {
    np.float64: [10.0 ** k for k in (-300, -150, -30, -8, 0, 8, 30, 150, 300)],
    np.float32: [10.0 ** k for k in (-30, -8, 0, 8, 30)],
}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = EvdService(
        workers=1, spool_dir=str(tmp_path_factory.mktemp("spool")),
        scheduler_interval=0.01, tick=0.01,
    ).start()
    yield svc
    svc.shutdown()


def _call(name, a, service):
    if name == "serve_submit":
        # Wait the job out, so no worker is still solving when a later
        # test counts contract calls.
        return service.result(service.submit(a, precision="fp64"), timeout=60.0)
    return ENTRY_POINTS[name](a)


def _rounding_level_symmetric(rng, dtype):
    """``X D X^T`` by GEMM in ``dtype``: symmetric up to its rounding."""
    x = np.linalg.qr(rng.standard_normal((N, N)))[0].astype(dtype)
    d = np.linspace(1.0, 2.0, N).astype(dtype)
    a = (x * d) @ x.T
    assert not np.array_equal(a, a.T)
    return a


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
class TestScaleSweep:
    def test_relatively_nonsymmetric_rejected_at_every_scale(
        self, name, dtype, rng, service,
    ):
        a = rng.standard_normal((N, N))
        for scale in SCALES[dtype]:
            with pytest.raises(NotSymmetricError) as ei:
                _call(name, (a * scale).astype(dtype), service)
            assert ei.value.field == "symmetry"

    def test_rounding_level_asymmetry_accepted_at_every_scale(
        self, name, dtype, rng, service,
    ):
        a = _rounding_level_symmetric(rng, dtype)
        for scale in SCALES[dtype]:
            try:
                _call(name, a * dtype(scale), service)
            except ValidationError as exc:
                pytest.fail(f"rejected at scale {scale:g}: {exc}")
            except ReproError:
                pass  # the solvers' own scaling limits are a separate matter


def test_motivating_case_rejected():
    # Fully non-symmetric, scaled below any absolute tolerance's reach.
    a = np.random.default_rng(0).standard_normal((128, 128)) * 1e-8
    with pytest.raises(NotSymmetricError):
        syevd_2stage(a, precision="fp64")


class TestContract:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_finiteness_checked_before_symmetry(self, rng, value):
        a = rng.standard_normal((6, 6))
        a = a + a.T
        a[0, 1] = value  # one entry: asymmetric as well as non-finite
        with pytest.raises(ShapeError) as ei:
            as_symmetric_matrix(a)
        assert ei.value.field == "finite"
        assert "check_input=False" in str(ei.value)

    def test_tolerance_comes_from_the_callers_dtype(self, rng):
        # float32 rounding-level asymmetry is 1e9 u for float64: judged
        # before the cast, it passes.
        a = _rounding_level_symmetric(rng, np.float32)
        out = as_symmetric_matrix(a, dtype=np.float64)
        assert out.dtype == np.float64
        with pytest.raises(NotSymmetricError):
            as_symmetric_matrix(a.astype(np.float64))

    def test_integer_input_becomes_float64(self):
        out = as_symmetric_matrix(np.array([[2, 1], [1, 3]]))
        assert out.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_finite_at_finfo_max(self, dtype):
        big = np.finfo(dtype).max
        a = np.array([[big, -big], [-big, big]], dtype=dtype)
        out = as_symmetric_matrix(a)
        assert out.tobytes() == a.tobytes()
        a[0, 1] = np.nextafter(-big, dtype(0))  # rounding-level asymmetry
        out = as_symmetric_matrix(a)
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out, out.T)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_on_odd_subnormals(self, dtype, rng):
        k = 2 * rng.integers(0, 50, size=(5, 5)) + 1
        k = np.tril(k) + np.tril(k, -1).T
        a = k.astype(dtype) * np.finfo(dtype).smallest_subnormal
        assert np.array_equal(a / np.finfo(dtype).smallest_subnormal, k)
        assert as_symmetric_matrix(a).tobytes() == a.tobytes()

    def test_exact_input_returned_bitwise_unchanged(self, rng):
        a = rng.standard_normal((7, 7))
        a = np.tril(a) + np.tril(a, -1).T
        a[2, 3] = a[3, 2] = -0.0
        assert as_symmetric_matrix(a).tobytes() == a.tobytes()


def _full_skew(a):
    """The symmetry check's value as one n x n formula."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float((a - a.T).max())


def _full_verdict(a):
    """What the contract decides, with the skew taken by ``_full_skew``."""
    if not np.isfinite(a).all():
        return "finite"
    tol = (float(np.finfo(a.dtype).eps) / 2) ** 0.5 * float(np.abs(a).max())
    return "symmetry" if _full_skew(a) > tol else "ok"


class TestTiledSkew:
    """The symmetry check walks lower tiles instead of forming ``A - A^T``."""

    @staticmethod
    def _inputs(rng, n, dtype):
        a = rng.standard_normal((n, n)).astype(dtype)
        sym = ((a + a.T) / 2).astype(dtype)
        near = sym + (1e-8 * rng.standard_normal((n, n))).astype(dtype)
        with np.errstate(over="ignore"):
            huge = (a * np.finfo(dtype).max / 4).astype(dtype)  # A - A^T overflows
        nan, inf = a.copy(), sym.copy()
        nan[n // 2, 0] = np.nan
        inf[0, n - 1] = -np.inf
        return [a, sym, near, a * dtype(1e-8), huge, nan, inf]

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_skew_and_verdict_as_the_full_formula(self, rng, n, dtype):
        for x in self._inputs(rng, n, dtype):
            if np.isfinite(x).all():
                got, want = validation._max_skew(x), _full_skew(x)
                assert got == want and np.signbit(got) == np.signbit(want)
            try:
                as_symmetric_matrix(x)
                verdict = "ok"
            except (ShapeError, NotSymmetricError) as exc:
                verdict = exc.field
            assert verdict == _full_verdict(x)

    def test_scale_free_rejection_of_a_tiny_asymmetric_input(self, rng):
        a = rng.standard_normal((130, 130)) * 1e-8
        with pytest.raises(NotSymmetricError):
            as_symmetric_matrix(a)


class TestFrontDoors:
    """Called directly, each layer front door runs the contract itself."""

    def test_householder_rejects_nonfinite(self, rng):
        a = rng.standard_normal((6, 6))
        a = a + a.T
        a[2, 2] = np.nan
        with pytest.raises(ShapeError) as ei:
            householder_tridiagonalize(a)
        assert ei.value.field == "finite"

    def test_bulge_chase_reports_nonfinite_band_as_breakdown(self, rng):
        a = rng.standard_normal((6, 6))
        a = a + a.T
        a[3, 1] = np.nan  # asymmetric too: the finiteness verdict wins
        with pytest.raises(NumericalBreakdownError) as ei:
            bulge_chase(a, 5)
        assert ei.value.detector == "nonfinite"


@pytest.fixture
def contract_checks(monkeypatch):
    """Patch every binding of the contract; record each call's ``check``."""
    real = validation.as_symmetric_matrix
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("check", True))
        return real(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, attr, counting)
    return calls


class TestCheckedOnce:
    @pytest.mark.parametrize("method", ["wy", "zy"])
    @pytest.mark.parametrize("want_vectors", [False, True])
    def test_syevd_2stage(self, rng, contract_checks, method, want_vectors):
        a = _rounding_level_symmetric(rng, np.float64)
        syevd_2stage(a, b=4, nb=8, method=method, want_vectors=want_vectors)
        assert contract_checks == [True]

    def test_syevd_1stage(self, rng, contract_checks):
        syevd_1stage(_rounding_level_symmetric(rng, np.float64))
        assert contract_checks == [True]

    def test_syevd_selected(self, rng, contract_checks):
        syevd_selected(_rounding_level_symmetric(rng, np.float64),
                       select=(0, 3), b=4, nb=8)
        assert contract_checks == [True]

    def test_check_input_false_runs_no_check(self, rng, contract_checks):
        syevd_2stage(_rounding_level_symmetric(rng, np.float64), b=4, nb=8,
                     check_input=False)
        assert contract_checks == [False]  # shape coercion and mirror only

    def test_served_job(self, rng, contract_checks, tmp_path):
        with EvdService(workers=1, spool_dir=str(tmp_path / "spool"),
                        scheduler_interval=0.01, tick=0.01) as svc:
            res = svc.result(svc.submit(_rounding_level_symmetric(rng, np.float32)),
                             timeout=60.0)
        assert res is not None and res.outcome == "done"
        # Submission checks; the worker's driver call only coerces.
        assert contract_checks == [True, False]


def test_serve_admits_float32_gemm_product(rng, tmp_path):
    a = _rounding_level_symmetric(rng, np.float32)
    rel = np.abs(a - a.T).max() / np.abs(a).max()
    assert rel > (np.finfo(np.float64).eps / 2) ** 0.5  # too much for float64
    with EvdService(workers=1, spool_dir=str(tmp_path / "spool"),
                    scheduler_interval=0.01, tick=0.01) as svc:
        res = svc.result(svc.submit(a, precision="fp64"), timeout=60.0)
    assert res is not None and res.outcome == "done"
    sym = np.tril(a) + np.tril(a, -1).T
    np.testing.assert_allclose(
        res.eigenvalues, np.linalg.eigvalsh(sym.astype(np.float64)), atol=1e-10)
