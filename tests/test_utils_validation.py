"""Unit tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils.validation import (
    check_data_matrix,
    check_finite,
    check_in_range,
    check_index_array,
    check_positive,
    check_probability_vector,
    check_query_block,
)


class TestCheckDataMatrix:
    def test_accepts_lists(self):
        out = check_data_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    def test_returns_contiguous(self):
        arr = np.asarray([[1.0, 2.0], [3.0, 4.0]])[:, ::-1]
        out = check_data_matrix(arr)
        assert out.flags["C_CONTIGUOUS"]

    def test_rejects_1d(self):
        with pytest.raises(ValidationError, match="2-D"):
            check_data_matrix(np.zeros(3))

    def test_rejects_3d(self):
        with pytest.raises(ValidationError, match="2-D"):
            check_data_matrix(np.zeros((2, 2, 2)))

    def test_rejects_empty_rows(self):
        with pytest.raises(ValidationError, match="non-empty"):
            check_data_matrix(np.zeros((0, 3)))

    def test_rejects_empty_cols(self):
        with pytest.raises(ValidationError, match="non-empty"):
            check_data_matrix(np.zeros((3, 0)))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN"):
            check_data_matrix([[1.0, float("nan")]])

    def test_rejects_inf(self):
        with pytest.raises(ValidationError, match="NaN or infinite"):
            check_data_matrix([[1.0, float("inf")]])

    def test_custom_name_in_message(self):
        with pytest.raises(ValidationError, match="mydata"):
            check_data_matrix(np.zeros(3), name="mydata")


class TestCheckFinite:
    def test_passes_finite(self):
        check_finite(np.asarray([1.0, 2.0]))

    def test_raises_on_nan(self):
        with pytest.raises(ValidationError):
            check_finite(np.asarray([np.nan]))

    def test_scalar(self):
        check_finite(3.0)
        with pytest.raises(ValidationError):
            check_finite(float("inf"))


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(2.5) == 2.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValidationError, match="> 0"):
            check_positive(0.0)

    def test_accepts_zero_when_not_strict(self):
        assert check_positive(0.0, strict=False) == 0.0

    def test_rejects_negative_non_strict(self):
        with pytest.raises(ValidationError, match=">= 0"):
            check_positive(-1.0, strict=False)

    def test_rejects_non_number(self):
        with pytest.raises(ValidationError, match="real number"):
            check_positive("three")


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(0.0, 0.0, 1.0) == 0.0
        assert check_in_range(1.0, 0.0, 1.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValidationError):
            check_in_range(0.0, 0.0, 1.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValidationError, match="lie in"):
            check_in_range(2.0, 0.0, 1.0)


class TestCheckProbabilityVector:
    def test_accepts_simplex_point(self):
        out = check_probability_vector([0.25, 0.75])
        assert out.sum() == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="negative"):
            check_probability_vector([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            check_probability_vector([0.2, 0.2])

    def test_rejects_2d(self):
        with pytest.raises(ValidationError, match="1-D"):
            check_probability_vector(np.ones((2, 2)) / 4)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="non-empty"):
            check_probability_vector([])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_probability_vector([np.nan, 1.0])


class TestCheckIndexArray:
    def test_accepts_valid(self):
        out = check_index_array([0, 2, 1], 3)
        assert out.dtype == np.intp

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValidationError, match="out of bounds"):
            check_index_array([3], 3)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="out of bounds"):
            check_index_array([-1], 3)

    def test_rejects_float_indices(self):
        with pytest.raises(ValidationError, match="integer"):
            check_index_array([0.5], 3)

    def test_accepts_integral_floats(self):
        out = check_index_array(np.asarray([0.0, 1.0]), 3)
        assert list(out) == [0, 1]

    def test_empty_allowed_by_default(self):
        assert check_index_array([], 3).size == 0

    def test_empty_rejected_when_disallowed(self):
        with pytest.raises(ValidationError, match="non-empty"):
            check_index_array([], 3, allow_empty=False)

    def test_rejects_2d(self):
        with pytest.raises(ValidationError, match="1-D"):
            check_index_array(np.zeros((2, 2), dtype=int), 4)

    def test_rejects_boolean_mask(self):
        # Read as indices, this mask would select rows 0 and 1.
        mask = np.zeros(40, dtype=bool)
        mask[30:] = True
        with pytest.raises(ValidationError, match="rows.*boolean mask"):
            check_index_array(mask, 40, name="rows")


class TestCheckQueryBlock:
    def test_vector_is_one_query(self):
        out = check_query_block([1, 2, 3], dim=3)
        assert out.shape == (1, 3)
        assert out.dtype == np.float64

    def test_returns_contiguous_float64(self):
        arr = np.arange(12, dtype=np.int32).reshape(3, 4)[:, ::-1]
        out = check_query_block(arr)
        assert out.flags["C_CONTIGUOUS"] and out.dtype == np.float64
        assert np.array_equal(out, arr)

    def test_empty_block(self):
        assert check_query_block(np.empty((0, 4)), dim=4).shape == (0, 4)
        with pytest.raises(ValidationError, match="non-empty"):
            check_query_block(np.empty((0, 4)), allow_empty=False)

    @pytest.mark.parametrize(
        "queries",
        [
            "abc",
            ["1.0", "2.0"],
            [[1.0, 2.0], [3.0]],
            np.asarray([[1 + 2j, 3.0]]),
            [[None, 1.0]],
            np.zeros((2, 2, 2)),
        ],
        ids=["string", "numeric-strings", "ragged", "complex", "object", "3-D"],
    )
    def test_malformed_blocks_raise(self, queries):
        with pytest.raises(ValidationError, match="queries"):
            check_query_block(queries)

    def test_complex_is_rejected_not_truncated(self):
        # A float64 cast would keep the real part with only a warning.
        with pytest.raises(ValidationError, match="complex"):
            check_query_block(np.asarray([[1 + 1j]]))

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError, match=r"\(q, 3\)"):
            check_query_block(np.zeros((2, 4)), dim=3)

    def test_non_finite(self):
        with pytest.raises(ValidationError, match="NaN"):
            check_query_block([[np.inf, 0.0]])
