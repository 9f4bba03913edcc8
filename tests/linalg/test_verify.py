"""Verification reports."""

import numpy as np
import pytest

from repro.linalg.dense import random_matrix
from repro.linalg.fastmm import classic_strassen_product, winograd_product
from repro.linalg.verify import NumericsInputs, verify_matmul
from repro.observability.metrics import registry
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
    """The difference keeps NaN: a NaN anywhere in C makes the error
    NaN, which no bound admits."""
    a = random_matrix(32, seed=4)
    b = random_matrix(32, seed=5)
    c = a @ b
    c[17, 3] = np.nan
    report = verify_matmul(a, b, c)
    assert np.isnan(report.abs_error)
    assert not report.ok


def test_error_is_the_max_norm_of_the_difference_on_a_view():
    """The check reports exactly ``max |c - a @ b|``, also for a
    strided view of a padded C, and leaves C untouched."""
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


@pytest.mark.parametrize(
    "variant, product",
    [
        ("classical", lambda a, b: a @ b + 1e-13),
        ("strassen", lambda a, b: classic_strassen_product(a, b, 64)),
        ("winograd", lambda a, b: winograd_product(a, b, 64)),
    ],
)
def test_shared_inputs_verify_like_verify_matmul(variant, product):
    """A scope's entry reports ``verify_matmul``'s bits for every check
    of its operands, reads C and its reference product without writing
    either, and computes the reference product once."""
    inputs = NumericsInputs()
    before = registry().snapshot()
    entry = inputs.get(512, 11)  # |c - ref| spans several row blocks
    a, b = entry.a, entry.b
    for cutoff in (16, 32, 64):
        c = product(a, b)
        c.flags.writeable = False
        kept = c.copy()
        got = entry.verify(c, variant, cutoff)
        want = verify_matmul(a, b, c, variant, cutoff)
        assert (got.abs_error.hex(), got.bound.hex()) == (
            want.abs_error.hex(), want.bound.hex()
        )
        assert np.array_equal(c, kept)
    c = product(a, b)
    c[37, 5] = np.nan
    assert np.isnan(entry.verify(c, variant).abs_error)
    assert np.array_equal(entry.reference(), a @ b)
    delta = registry().delta_since(before)["numerics.reference_products"]
    assert delta == 1 + 3  # the entry's one, and one per verify_matmul


def test_shared_operands_are_read_only_and_released_after_their_last_use():
    inputs = NumericsInputs([(64, 0), None, (32, 0), (64, 0), None])
    first = inputs.get(64, 0)
    assert inputs.get(64, 0) is first
    with pytest.raises(ValueError):
        first.a[0, 0] = 1.0
    inputs.get(32, 0)
    for step, live in enumerate([2, 2, 1, 0, 0]):
        inputs.done(step)
        assert len(inputs) == live, step
    assert inputs.get(64, 0) is not first
    inputs.clear()
    assert len(inputs) == 0
