"""Tests for the shared argument-validation helpers."""

import math

import numpy as np
import pytest

from repro.utils import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_vector,
)


class TestCheckPositive:
    @pytest.mark.parametrize("value", [1, 0.5, 1e-12, np.float64(3.0)])
    def test_accepts_and_returns_value(self, value):
        assert check_positive(value, "lr") is value

    @pytest.mark.parametrize("value", [0, 0.0, -1, -1e-12, math.nan])
    def test_rejects_non_positive_and_nan(self, value):
        with pytest.raises(ValueError, match="lr must be positive"):
            check_positive(value, "lr")

    def test_rejects_non_numbers(self):
        with pytest.raises(ValueError, match="lr"):
            check_positive("1.0", "lr")


class TestCheckNonNegative:
    @pytest.mark.parametrize("value", [0, 0.0, 7, 2.5])
    def test_accepts_zero_and_positive(self, value):
        assert check_non_negative(value, "delay") is value

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="delay must be non-negative, got -0.5"):
            check_non_negative(-0.5, "delay")

    def test_rejects_non_numbers(self):
        with pytest.raises(ValueError, match="delay"):
            check_non_negative(None, "delay")


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0, 0.0, 0.25, 1, 1.0])
    def test_closed_interval_accepted(self, value):
        assert check_probability(value, "p") is value

    @pytest.mark.parametrize("value", [-0.01, 1.01, math.nan, math.inf])
    def test_outside_interval_rejected(self, value):
        with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
            check_probability(value, "p")


class TestCheckInRange:
    def test_bounds_are_inclusive(self):
        assert check_in_range(2, "k", 2, 5) == 2
        assert check_in_range(5, "k", 2, 5) == 5

    def test_message_names_the_bounds(self):
        with pytest.raises(ValueError, match=r"k must be in \[2, 5\], got 6"):
            check_in_range(6, "k", 2, 5)
        with pytest.raises(ValueError, match=r"k must be in \[2, 5\], got 1"):
            check_in_range(1, "k", 2, 5)


class TestCheckVector:
    def test_returns_the_same_array(self):
        v = np.zeros(4)
        assert check_vector(v, "delta") is v
        assert check_vector(v, "delta", size=4) is v

    @pytest.mark.parametrize(
        "arr", [np.zeros((2, 2)), np.float64(1.0), [0.0, 1.0]], ids=["2d", "scalar", "list"]
    )
    def test_non_vectors_rejected(self, arr):
        with pytest.raises(ValueError, match="delta must be a 1-D ndarray"):
            check_vector(arr, "delta")

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="delta must have size 5, got 4"):
            check_vector(np.zeros(4), "delta", size=5)
