"""Validation helper behaviour."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.errors import ValidationError
from repro.util.validation import (
    is_power_of_two,
    next_power_of_two,
    require_fraction,
    require_in_range,
    require_nonempty,
    require_nonnegative,
    require_positive,
    require_power_of_two,
    require_type,
)


def test_require_positive_accepts_and_returns():
    assert require_positive(3.5, "x") == 3.5


@pytest.mark.parametrize("bad", [0, -1, -0.5])
def test_require_positive_rejects(bad):
    with pytest.raises(ValidationError, match="x"):
        require_positive(bad, "x")


def test_require_nonnegative():
    assert require_nonnegative(0, "x") == 0
    with pytest.raises(ValidationError):
        require_nonnegative(-1e-9, "x")


@pytest.mark.parametrize("helper", [require_nonnegative, require_positive])
def test_nan_is_rejected(helper):
    # Every comparison with NaN is false, so ``value < 0`` used to let
    # NaN through; the predicates are now written so NaN fails them.
    for bad in (math.nan, np.float64("nan")):
        with pytest.raises(ValidationError, match="nan"):
            helper(bad, "x")


def test_inf_stays_legal():
    assert require_nonnegative(math.inf, "x") == math.inf
    assert require_positive(math.inf, "x") == math.inf


def test_array_values_checked_elementwise():
    ok = np.array([0.0, 1.0, math.inf])
    assert require_nonnegative(ok, "x") is ok
    assert require_positive(np.array([1, 2]), "x").tolist() == [1, 2]
    assert require_nonnegative(np.zeros(0), "x").size == 0
    with pytest.raises(ValidationError, match="got -2.0"):
        require_nonnegative(np.array([1.0, -2.0, -3.0]), "x")
    with pytest.raises(ValidationError, match="got nan"):
        require_nonnegative(np.array([1.0, math.nan]), "x")
    with pytest.raises(ValidationError, match="got 0"):
        require_positive(np.array([3, 0]), "x")


def test_require_in_range():
    assert require_in_range(5, 0, 10, "x") == 5
    with pytest.raises(ValidationError):
        require_in_range(11, 0, 10, "x")


def test_require_fraction_bounds():
    assert require_fraction(1.0, "eff") == 1.0
    assert require_fraction(0.01, "eff") == 0.01
    for bad in (0.0, 1.5, -0.2):
        with pytest.raises(ValidationError):
            require_fraction(bad, "eff")


@pytest.mark.parametrize("n,expected", [(1, True), (2, True), (64, True), (3, False), (0, False), (-4, False)])
def test_is_power_of_two(n, expected):
    assert is_power_of_two(n) is expected


def test_require_power_of_two():
    assert require_power_of_two(64, "n") == 64
    with pytest.raises(ValidationError):
        require_power_of_two(65, "n")


@given(st.integers(min_value=1, max_value=10**6))
def test_next_power_of_two_properties(n):
    m = next_power_of_two(n)
    assert is_power_of_two(m)
    assert m >= n
    assert m < 2 * n or n == 1


def test_next_power_of_two_rejects_nonpositive():
    with pytest.raises(ValidationError):
        next_power_of_two(0)


def test_require_type():
    assert require_type(3, int, "x") == 3
    with pytest.raises(ValidationError):
        require_type("3", int, "x")


def test_require_nonempty():
    assert require_nonempty([1], "xs") == [1]
    with pytest.raises(ValidationError):
        require_nonempty([], "xs")
    # generators are materialized
    assert require_nonempty((i for i in range(2)), "xs") == [0, 1]
