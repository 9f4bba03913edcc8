"""Verification reports."""

import numpy as np
import pytest

from repro.linalg.dense import random_matrix
from repro.linalg.fastmm import winograd_product
from repro.linalg.verify import verify_matmul
from repro.util.errors import ValidationError


def test_exact_product_verifies():
    a = random_matrix(32, seed=0)
    b = random_matrix(32, seed=1)
    report = verify_matmul(a, b, a @ b, variant="classical")
    assert report.ok
    assert report.abs_error <= report.bound


def test_winograd_product_verifies_under_its_bound():
    a = random_matrix(128, seed=2)
    b = random_matrix(128, seed=3)
    c = winograd_product(a, b, 32)
    report = verify_matmul(a, b, c, variant="winograd", cutoff=32)
    assert report.ok


def test_corrupted_result_fails():
    a = random_matrix(32, seed=4)
    b = random_matrix(32, seed=5)
    c = a @ b
    c[0, 0] += 1.0
    report = verify_matmul(a, b, c)
    assert not report.ok
    assert report.abs_error >= 1.0


def test_nan_in_result_fails():
    """The in-place difference keeps NaN: a NaN anywhere in C makes the
    error NaN, which no bound admits."""
    a = random_matrix(32, seed=4)
    b = random_matrix(32, seed=5)
    c = a @ b
    c[17, 3] = np.nan
    report = verify_matmul(a, b, c)
    assert np.isnan(report.abs_error)
    assert not report.ok


def test_error_is_the_max_norm_of_the_difference_on_a_view():
    """The in-place path reports exactly ``max |c - a @ b|``, also for
    a strided view of a padded C, and leaves C untouched."""
    a = random_matrix(64, seed=6)
    b = random_matrix(64, seed=7)
    padded = np.zeros((80, 80))
    padded[:64, :64] = winograd_product(a, b, 16)
    c = padded[:64, :64]
    before = c.copy()
    report = verify_matmul(a, b, c, variant="winograd", cutoff=16)
    assert report.abs_error == float(np.max(np.abs(before - a @ b)))
    assert np.array_equal(c, before)


def test_shape_mismatch():
    with pytest.raises(ValidationError):
        verify_matmul(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 3)))


def test_repr_mentions_verdict():
    a = random_matrix(8, seed=6)
    report = verify_matmul(a, a, a @ a)
    assert "ok" in repr(report)
