"""Blocking selection, tile grids, parameter search."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.tuning import Blocking, select_blocking, tile_grid, tune_parameter
from repro.util.errors import ConfigurationError


def test_select_blocking_haswell(machine):
    b = select_blocking(machine)
    assert b.b1 < b.b2 < b.b3
    # Three b3^2 double tiles fit the 8 MiB LLC.
    assert 3 * b.b3**2 * 8 <= 8 * 2**20


def test_blocking_ordering_enforced():
    with pytest.raises(ConfigurationError):
        Blocking(100, 50, 200)


def test_tile_grid_covers_dimension_exactly():
    extents = tile_grid(1000, threads=3)
    assert extents[0][0] == 0
    assert sum(size for _, size in extents) == 1000
    offsets = [o for o, _ in extents]
    assert offsets == sorted(offsets)


def test_tile_grid_divisible_by_threads():
    """The grid prefers tile counts that divide the team evenly."""
    for threads in (1, 2, 3, 4):
        per_dim = len(tile_grid(4096, threads, min_tiles_per_thread=4))
        assert (per_dim * per_dim) % threads == 0


def test_tile_grid_enough_tasks():
    per_dim = len(tile_grid(4096, threads=4, min_tiles_per_thread=4))
    assert per_dim * per_dim >= 16


def test_tile_grid_small_n():
    extents = tile_grid(2, threads=4)
    assert sum(size for _, size in extents) == 2
    assert all(size >= 1 for _, size in extents)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5000),
    threads=st.integers(min_value=1, max_value=16),
    per=st.integers(min_value=1, max_value=8),
)
def test_tile_grid_partition_property(n, threads, per):
    extents = tile_grid(n, threads, per)
    # Exact, gap-free, non-overlapping partition of [0, n).
    pos = 0
    for offset, size in extents:
        assert offset == pos
        assert size >= 1
        pos += size
    assert pos == n


def test_tune_parameter_picks_minimum():
    best, scores = tune_parameter([16, 32, 64, 128], lambda c: abs(c - 64))
    assert best == 64
    assert scores[128] == 64


def test_tune_parameter_deterministic_ties():
    best, _ = tune_parameter([2, 1, 3], lambda c: 0.0)
    assert best == 1  # smallest candidate on ties


def test_leaf_cutoff_search_picks_an_interior_cutoff(machine, engine):
    """§IV-B's empirical search by simulated runtime: tiny leaves drown
    in addition overhead and huge leaves forfeit the operation-count
    reduction, so the interior of the sweep (the paper's 64) wins."""
    from repro.algorithms import StrassenWinograd

    def runtime(cutoff):
        alg = StrassenWinograd(machine, cutoff=cutoff, grain=cutoff)
        return engine.run(alg.build_arena(512, 4).graph, 4).elapsed_s

    best, _ = tune_parameter([16, 32, 64, 128, 256], runtime)
    assert best in (32, 64, 128)


def test_tune_parameter_empty_rejected():
    with pytest.raises(ConfigurationError):
        tune_parameter([], lambda c: 0.0)
