"""Tests for the exception hierarchy and input validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    NotSymmetricError,
    ReproError,
    ShapeError,
    SingularMatrixError,
)
from repro.validation import (
    as_matrix,
    as_square_matrix,
    as_symmetric_matrix,
    check_blocksizes,
    check_positive_int,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ShapeError, NotSymmetricError, SingularMatrixError, ConvergenceError, ConfigurationError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_shape_error_is_value_error(self):
        assert issubclass(ShapeError, ValueError)

    def test_convergence_error_is_runtime_error(self):
        assert issubclass(ConvergenceError, RuntimeError)

    def test_catching_base_catches_all(self):
        with pytest.raises(ReproError):
            raise NotSymmetricError("x")


class TestAsMatrix:
    def test_accepts_list_of_lists(self):
        m = as_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.shape == (2, 2)

    def test_returns_contiguous(self, rng):
        a = rng.standard_normal((6, 6))[::2]  # non-contiguous view
        out = as_matrix(a)
        assert out.flags["C_CONTIGUOUS"]

    def test_rejects_1d(self):
        with pytest.raises(ShapeError, match="2-D"):
            as_matrix(np.zeros(3))

    def test_rejects_3d(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError, match="non-empty"):
            as_matrix(np.zeros((0, 3)))

    def test_dtype_conversion(self):
        m = as_matrix([[1, 2], [3, 4]], dtype=np.float32)
        assert m.dtype == np.float32

    def test_error_uses_argument_name(self):
        with pytest.raises(ShapeError, match="panel"):
            as_matrix(np.zeros(3), name="panel")


class TestAsSquareMatrix:
    def test_accepts_square(self, rng):
        a = rng.standard_normal((4, 4))
        assert as_square_matrix(a).shape == (4, 4)

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ShapeError, match="square"):
            as_square_matrix(rng.standard_normal((4, 3)))


class TestAsSymmetricMatrix:
    def test_accepts_symmetric(self, rng):
        a = rng.standard_normal((5, 5))
        sym = (a + a.T) / 2
        out = as_symmetric_matrix(sym)
        np.testing.assert_array_equal(out, out.T)

    def test_exact_symmetrization(self, rng):
        a = rng.standard_normal((5, 5))
        sym = (a + a.T) / 2
        # Introduce rounding-level asymmetry.
        noisy = sym + 1e-9 * rng.standard_normal((5, 5))
        out = as_symmetric_matrix(noisy)
        np.testing.assert_array_equal(out, out.T)

    def test_rejects_asymmetric(self, rng):
        a = rng.standard_normal((5, 5))
        with pytest.raises(NotSymmetricError):
            as_symmetric_matrix(a)

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ShapeError):
            as_symmetric_matrix(rng.standard_normal((4, 3)))


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(5, name="x") == 5

    def test_accepts_numpy_int(self):
        assert check_positive_int(np.int64(3), name="x") == 3

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ShapeError):
            check_positive_int(bad, name="x")

    @pytest.mark.parametrize("bad", [1.5, "3", True])
    def test_rejects_non_int(self, bad):
        with pytest.raises(ShapeError):
            check_positive_int(bad, name="x")


class TestCheckBlocksizes:
    def test_valid(self):
        check_blocksizes(128, 16, 64)  # no raise

    def test_valid_without_nb(self):
        check_blocksizes(128, 16)

    def test_b_exceeds_n(self):
        with pytest.raises(ConfigurationError, match="exceeds"):
            check_blocksizes(8, 16)

    def test_nb_not_multiple_of_b(self):
        with pytest.raises(ConfigurationError, match="multiple"):
            check_blocksizes(128, 16, 40)

    def test_nb_exceeds_n(self):
        with pytest.raises(ConfigurationError, match="exceeds"):
            check_blocksizes(32, 16, 64)


class TestValidationErrorStructure:
    """Structured ValidationError: machine-readable field + name."""

    def test_shape_error_is_validation_error(self):
        from repro.errors import ValidationError
        assert issubclass(ShapeError, ValidationError)
        assert issubclass(NotSymmetricError, ValidationError)
        assert issubclass(ValidationError, ValueError)

    def test_field_and_name_carried_and_rendered(self):
        from repro.errors import ValidationError
        with pytest.raises(ValidationError) as ei:
            as_square_matrix(np.zeros((2, 3)), name="input")
        assert ei.value.field == "square"
        assert ei.value.name == "input"
        assert "[field=square" in str(ei.value)

    def test_nonfinite_field(self, rng):
        from repro.errors import ValidationError
        from repro.validation import check_finite_matrix
        a = rng.standard_normal((4, 4))
        a[1, 2] = np.inf
        with pytest.raises(ValidationError) as ei:
            check_finite_matrix(a)
        assert ei.value.field == "finite"

    def test_symmetry_field(self, rng):
        a = rng.standard_normal((5, 5))
        with pytest.raises(NotSymmetricError) as ei:
            as_symmetric_matrix(a)
        assert ei.value.field == "symmetry"

    def test_check_false_skips_symmetry_test(self, rng):
        a = rng.standard_normal((5, 5))
        out = as_symmetric_matrix(a, check=False)  # symmetrizes silently
        np.testing.assert_array_equal(out, out.T)


class TestCheckTridiagonal:
    def test_valid_pair_passes_as_float64(self):
        from repro.validation import check_tridiagonal
        d, e = check_tridiagonal([1, 2, 3], [4, 5])
        assert d.dtype == np.float64 and e.dtype == np.float64

    def test_rejects_length_mismatch(self):
        from repro.errors import ValidationError
        from repro.validation import check_tridiagonal
        with pytest.raises(ValidationError):
            check_tridiagonal([1.0, 2.0, 3.0], [1.0])

    def test_rejects_nonfinite(self):
        from repro.errors import ValidationError
        from repro.validation import check_tridiagonal
        with pytest.raises(ValidationError) as ei:
            check_tridiagonal([1.0, np.nan], [0.5])
        assert ei.value.field == "finite"

    def test_check_finite_vector(self):
        from repro.errors import ValidationError
        from repro.validation import check_finite_vector
        check_finite_vector(np.ones(3), name="eigenvalues")
        with pytest.raises(ValidationError) as ei:
            check_finite_vector(np.array([1.0, np.inf]), name="eigenvalues")
        assert ei.value.name == "eigenvalues"


class TestCheckInputGate:
    """check_input=False skips entry validation on the drivers."""

    def test_driver_rejects_nan_by_default(self, rng):
        from repro.eig.driver import syevd_2stage
        from repro.errors import ValidationError
        a = rng.standard_normal((8, 8))
        a = (a + a.T) / 2
        a[0, 0] = np.nan
        with pytest.raises(ValidationError):
            syevd_2stage(a, b=2, nb=4)

    def test_driver_skip_gate_symmetrizes_anyway(self, rng):
        from repro.eig.driver import syevd_2stage
        a = rng.standard_normal((8, 8))  # asymmetric on purpose
        res = syevd_2stage(a, b=2, nb=4, precision="fp64",
                           check_input=False)
        sym = np.tril(a) + np.tril(a, -1).T  # the lower triangle, mirrored
        np.testing.assert_allclose(
            res.eigenvalues, np.linalg.eigvalsh(sym), atol=1e-10)

    def test_tridiag_ql_gate(self):
        from repro.eig.qliter import tridiag_eig_ql
        from repro.errors import ValidationError
        with pytest.raises(ValidationError):
            tridiag_eig_ql(np.array([1.0, np.nan]), np.array([0.1]))
