"""Tests for the allclose verification helpers (paper Section V-A tolerances)."""

import numpy as np
import pytest

from repro.utils.validation import (
    PAPER_ATOL,
    PAPER_RTOL,
    allclose_report,
    assert_allclose_paper,
    check_finite,
    check_real_finite,
    require,
)


class TestRequire:
    def test_passes_silently(self):
        require(True, "never raised")

    def test_raises_value_error_with_message(self):
        with pytest.raises(ValueError, match="broken invariant"):
            require(False, "broken invariant")


class TestCheckFinite:
    def test_accepts_finite(self):
        check_finite(np.ones(4))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            check_finite(np.array([1.0, np.nan]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_finite(np.array([np.inf]))


class TestCheckRealFinite:
    """Attention inputs must be real floating point: integers and booleans
    truncate, complex values lose their imaginary part in a real arena."""

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_accepts_finite_real_floats(self, dtype):
        check_real_finite(np.linspace(-2.0, 2.0, 12).reshape(3, 4).astype(dtype), "q")

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int64, np.uint8, np.bool_, np.complex64, np.complex128, object]
    )
    def test_refuses_other_dtypes_by_name(self, dtype):
        # zeros: every value is representable, so only the dtype is at fault
        array = np.zeros((3, 4), dtype=dtype)
        message = f"k must be a real floating-point array, got {array.dtype}"
        with pytest.raises(ValueError, match=message):
            check_real_finite(array, "k")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_entries(self, value):
        array = np.ones((3, 4), dtype=np.float32)
        array[1, 2] = value
        with pytest.raises(ValueError, match="v contains 1 non-finite entries"):
            check_real_finite(array, "v")


class TestAllcloseReport:
    def test_paper_tolerances_exported(self):
        assert PAPER_ATOL == 1e-8
        assert PAPER_RTOL == 1e-5

    def test_identical_arrays_ok(self):
        x = np.random.default_rng(0).random((8, 8))
        report = allclose_report(x, x)
        assert report.ok
        assert report.max_abs_error == 0.0
        assert report.mismatched == 0

    def test_mismatch_detected_and_counted(self):
        x = np.zeros((4, 4))
        y = x.copy()
        y[0, 0] = 1.0
        report = allclose_report(x, y)
        assert not report.ok
        assert report.mismatched == 1
        assert report.total == 16
        assert report.max_abs_error == pytest.approx(1.0)
        assert 0 < report.mismatch_fraction < 1

    def test_nan_equal_nan(self):
        x = np.array([[np.nan, 1.0]])
        report = allclose_report(x, x)
        assert report.ok

    def test_nan_vs_value_fails(self):
        report = allclose_report(np.array([np.nan]), np.array([0.0]))
        assert not report.ok

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            allclose_report(np.zeros(3), np.zeros(4))

    def test_within_tolerance_passes(self):
        x = np.ones(10)
        y = x + 5e-6  # within rtol=1e-5 of 1.0
        assert allclose_report(x, y).ok

    def test_outside_tolerance_fails(self):
        x = np.ones(10)
        y = x + 1e-3
        assert not allclose_report(x, y).ok


class TestAssertAllclosePaper:
    def test_returns_report_on_success(self):
        x = np.random.default_rng(1).random(16)
        report = assert_allclose_paper(x, x)
        assert report.ok

    def test_raises_assertion_with_context(self):
        with pytest.raises(AssertionError, match="local kernel"):
            assert_allclose_paper(np.zeros(3), np.ones(3), context="local kernel")
