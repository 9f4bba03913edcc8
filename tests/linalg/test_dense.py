"""Dense helpers."""

import numpy as np
import pytest

from repro.linalg.dense import (
    join_quadrants,
    matmul_flops,
    pad_to_power_of_two,
    random_matrix,
    require_square,
    split_quadrants,
    working_set_bytes,
)
from repro.util.errors import ValidationError


def test_random_matrix_deterministic():
    a = random_matrix(16, seed=7)
    b = random_matrix(16, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, random_matrix(16, seed=8))


def test_random_matrix_range_and_dtype():
    a = random_matrix(32, seed=0, lo=-2, hi=2)
    assert a.dtype == np.float64
    assert a.min() >= -2 and a.max() < 2


def test_random_matrix_bytes_match_the_copying_expression():
    """No copy of the generator's float64 draw, and the same bytes as
    the former ``.astype(float64)`` copy."""
    for n, seed in ((1, 0), (17, 3), (64, 2015)):
        old = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, n)).astype(np.float64)
        new = random_matrix(n, seed=seed)
        assert new.tobytes() == old.tobytes()
        assert new.flags.c_contiguous and new.flags.owndata


def test_require_square():
    require_square(np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        require_square(np.zeros((3, 4)))
    with pytest.raises(ValidationError):
        require_square(np.zeros(3))


def test_split_quadrants_views_not_copies():
    a = np.arange(16.0).reshape(4, 4)
    a11, a12, a21, a22 = split_quadrants(a)
    assert a11.base is not None  # view, not copy
    a11[0, 0] = 99.0
    assert a[0, 0] == 99.0


def test_split_quadrant_contents():
    a = np.arange(16.0).reshape(4, 4)
    a11, a12, a21, a22 = split_quadrants(a)
    assert np.array_equal(a11, [[0, 1], [4, 5]])
    assert np.array_equal(a22, [[10, 11], [14, 15]])


def test_split_odd_rejected():
    with pytest.raises(ValidationError):
        split_quadrants(np.zeros((3, 3)))


def test_join_inverts_split():
    a = random_matrix(8, seed=1)
    assert np.array_equal(join_quadrants(*split_quadrants(a)), a)


def test_join_shape_mismatch():
    with pytest.raises(ValidationError):
        join_quadrants(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 3)))


def test_pad_to_power_of_two():
    a = random_matrix(12, seed=0)
    padded, n = pad_to_power_of_two(a)
    assert n == 12
    assert padded.shape == (16, 16)
    assert np.array_equal(padded[:12, :12], a)
    assert np.all(padded[12:, :] == 0)


def test_pad_noop_for_power_of_two():
    a = random_matrix(16, seed=0)
    padded, n = pad_to_power_of_two(a)
    assert padded is a and n == 16


def test_padding_preserves_product():
    a = random_matrix(12, seed=1)
    b = random_matrix(12, seed=2)
    pa, _ = pad_to_power_of_two(a)
    pb, _ = pad_to_power_of_two(b)
    assert np.allclose((pa @ pb)[:12, :12], a @ b)


def test_matmul_flops():
    assert matmul_flops(512) == 2 * 512**3


def test_working_set_bytes():
    # The paper: 3 x 512^2 doubles fit the 8 MB LLC.
    assert working_set_bytes(512) == 3 * 512 * 512 * 8
    assert working_set_bytes(512) < 8 * 2**20
    assert working_set_bytes(1024) > 8 * 2**20
