"""Platform sensitivity sweeps."""

import pytest

from repro.core.sensitivity import channel_sweep, sensitivity_table
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def points(machine):
    return channel_sweep(
        machine, channels=(1, 2, 4), sizes=(256, 512), threads=(1, 2, 4)
    )


def test_one_point_per_channel(points):
    assert [p.label for p in points] == [
        "1 channel(s)", "2 channel(s)", "4 channel(s)"
    ]


def test_single_channel_row_is_paper_platform(points, machine):
    base = points[0]
    assert not base.crossover_reachable  # the paper's finding
    assert 2.0 < base.strassen_slowdown < 4.5
    assert base.strassen_s4 < 0.75 * 4  # starved to deep sub-linearity


def test_bandwidth_lifts_strassen_scaling(points):
    """More channels -> the Strassen family's leaves stop starving ->
    its EP scaling moves toward the line, its slowdown shrinks and the
    Eq. 9 crossover comes into range: the paper's conclusions are
    bandwidth-bound."""
    for narrow, wide in zip(points, points[1:]):
        assert wide.strassen_s4 > narrow.strassen_s4
        assert wide.strassen_slowdown < narrow.strassen_slowdown
        assert wide.crossover_reachable
    assert points[-1].strassen_s4 > 1.5 * points[0].strassen_s4


def test_openblas_superlinearity_is_robust(points):
    """OpenBLAS stays superlinear regardless of channels: its power
    growth is core-side, not memory-side."""
    for p in points:
        assert p.openblas_s4 > 6.0


def test_table_rendering(points):
    table = sensitivity_table(points)
    assert len(table.rows) == 3
    assert "Eq.9 reachable" in table.headers


def test_empty_table_rejected():
    with pytest.raises(ValidationError):
        sensitivity_table([])


def test_empty_channels_rejected(machine):
    with pytest.raises(ValidationError):
        channel_sweep(machine, channels=())
