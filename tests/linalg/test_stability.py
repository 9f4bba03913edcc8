"""Stability bounds (Higham-style coefficients)."""

import math

import numpy as np
import pytest

from repro.linalg.dense import random_matrix
from repro.linalg.stability import (
    UNIT_ROUNDOFF,
    classical_error_coefficient,
    error_bound,
    max_norm,
    relative_error,
    strassen_error_coefficient,
    winograd_error_coefficient,
)
from repro.util.errors import ValidationError


def test_unit_roundoff_double():
    assert UNIT_ROUNDOFF == pytest.approx(2.0**-53)


def test_classical_coefficient():
    assert classical_error_coefficient(100) == 100**2 + 100


def test_strassen_reduces_to_leaf_at_cutoff():
    # n == n0: (n/n0)^x = 1 -> coefficient = n0^2 + 5n0 - 5n = n^2.
    assert strassen_error_coefficient(64, 64) == pytest.approx(64**2)
    assert winograd_error_coefficient(64, 64) == pytest.approx(64**2)


def test_coefficients_grow_with_recursion():
    shallow = strassen_error_coefficient(128, 64)
    deep = strassen_error_coefficient(1024, 64)
    assert deep > shallow > classical_error_coefficient(128)


def test_winograd_grows_faster_than_strassen():
    # log2(18) > log2(12): longer addition chains compound roundoff.
    n, n0 = 4096, 64
    assert winograd_error_coefficient(n, n0) > strassen_error_coefficient(n, n0)


def test_growth_exponents():
    n0 = 64
    ratio_s = strassen_error_coefficient(4 * n0, n0) / strassen_error_coefficient(
        2 * n0, n0
    )
    # Doubling n roughly multiplies the leading term by 12.
    assert ratio_s == pytest.approx(12.0, rel=0.15)
    ratio_w = winograd_error_coefficient(4 * n0, n0) / winograd_error_coefficient(
        2 * n0, n0
    )
    assert ratio_w == pytest.approx(18.0, rel=0.15)


def test_cutoff_above_n_rejected():
    with pytest.raises(ValidationError):
        strassen_error_coefficient(32, 64)


def test_max_norm():
    assert max_norm(np.array([[1.0, -5.0], [2.0, 3.0]])) == 5.0
    assert max_norm(np.zeros((0, 0))) == 0.0


def test_relative_error():
    ref = np.array([[2.0, 0.0], [0.0, 2.0]])
    approx = ref + 0.02
    assert relative_error(approx, ref) == pytest.approx(0.01)
    assert relative_error(np.ones((2, 2)), np.zeros((2, 2))) == 1.0


def test_error_bound_scales_with_operands():
    a = random_matrix(64, seed=0)
    assert error_bound(2 * a, a) == pytest.approx(2 * error_bound(a, a))


def test_error_bound_variants_ordered():
    a = random_matrix(256, seed=0)
    b = random_matrix(256, seed=1)
    assert (
        error_bound(a, b, "classical")
        < error_bound(a, b, "strassen")
        < error_bound(a, b, "winograd")
    )


def test_measured_errors_against_bounds():
    """§IV-B: every fast-variant error, measured against the classical
    product, sits under its Higham bound and is not zero, and
    Winograd's error grows superlinearly in n."""
    from repro.linalg.fastmm import classic_strassen_product, winograd_product

    winograd_err = {}
    for n in (128, 256, 512):
        a, b = random_matrix(n, seed=n), random_matrix(n, seed=n + 1)
        reference = a @ b
        for variant, product in (
            ("strassen", classic_strassen_product),
            ("winograd", winograd_product),
        ):
            err = max_norm(product(a, b, 32) - reference)
            assert 0.0 < err <= error_bound(a, b, variant=variant, cutoff=32)
        winograd_err[n] = err
    assert winograd_err[512] > 2 * winograd_err[128]


def test_error_bound_unknown_variant():
    a = random_matrix(8, seed=0)
    with pytest.raises(ValidationError):
        error_bound(a, a, "magic")
