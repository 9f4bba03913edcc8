"""Equation 9: the Strassen/blocked crossover point."""

import pytest

from repro.core.crossover import analyze_crossover, crossover_dimension
from repro.util.errors import ValidationError


def test_eq9_formula():
    assert crossover_dimension(1000.0, 480.0) == pytest.approx(1000.0)
    assert crossover_dimension(100.0, 100.0) == pytest.approx(480.0)


def test_eq9_scales_linearly_with_compute():
    assert crossover_dimension(2000, 100) == 2 * crossover_dimension(1000, 100)


def test_eq9_validation():
    with pytest.raises(ValidationError):
        crossover_dimension(0, 1)
    with pytest.raises(ValidationError):
        crossover_dimension(1, 0)


def test_bandwidth_rich_platform_reaches_crossover(machine):
    """More channels pull the crossover into feasible range."""
    from repro.machine import generic_smp
    from repro.util.units import GiB

    fat = generic_smp(cores=4, dram_channels=8, dram_capacity_bytes=512 * GiB)
    analysis = analyze_crossover(fat)
    assert analysis.reachable


def test_max_feasible_n_from_memory(machine):
    analysis = analyze_crossover(machine, buffer_factor=8.0)
    # 8 n^2 doubles <= 4 GiB -> n <= sqrt(4GiB/64) ~ 8192.
    assert analysis.max_feasible_n == pytest.approx(8192, rel=0.01)
