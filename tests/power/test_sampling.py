"""Power traces."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.power.planes import Plane
from repro.power.sampling import PowerSegment, PowerTrace
from repro.util.errors import MeasurementError, ValidationError

PKG = Plane.PACKAGE


def seg(t0, t1, w):
    return PowerSegment(t0, t1, {PKG: w})


def trace():
    return PowerTrace([seg(0, 1, 10.0), seg(1, 3, 20.0), seg(3, 4, 30.0)])


def test_segment_validation():
    with pytest.raises(ValidationError):
        PowerSegment(1.0, 0.5, {PKG: 1.0})
    with pytest.raises(ValidationError):
        PowerSegment(0, 1, {PKG: -1.0})


def test_energy_integrates_watts():
    t = trace()
    assert t.energy(PKG) == pytest.approx(10 + 40 + 30)


def test_average_power_is_energy_over_duration():
    t = trace()
    assert t.average_power(PKG) == pytest.approx(80 / 4)


def test_peak_power():
    assert trace().peak_power(PKG) == 30.0


def test_power_at():
    t = trace()
    assert t.power_at(0.5, PKG) == 10.0
    assert t.power_at(2.0, PKG) == 20.0
    assert t.power_at(3.5, PKG) == 30.0
    assert t.power_at(5.0, PKG) == 0.0  # past end
    assert t.power_at(-1.0, PKG) == 0.0  # before start


def test_overlapping_segments_rejected():
    with pytest.raises(ValidationError):
        PowerTrace([seg(0, 2, 1.0), seg(1, 3, 1.0)])


def test_segments_sorted_automatically():
    t = PowerTrace([seg(2, 3, 5.0), seg(0, 2, 1.0)])
    assert t.t_start == 0 and t.t_end == 3


def test_empty_trace_errors():
    t = PowerTrace([])
    with pytest.raises(MeasurementError):
        _ = t.t_start
    with pytest.raises(MeasurementError):
        t.peak_power(PKG)
    assert t.duration == 0.0


def test_resample_period():
    samples = trace().resample(0.5, PKG)
    assert len(samples) == 8
    assert samples[0] == (0.0, 10.0)
    assert samples[-1][1] == 30.0
    with pytest.raises(ValidationError):
        trace().resample(0, PKG)


def test_missing_plane_reads_zero():
    assert trace().energy(Plane.DRAM) == 0.0


def test_concat():
    a = PowerTrace([seg(0, 1, 1.0)])
    b = PowerTrace([seg(1, 2, 3.0)])
    c = PowerTrace.concat([a, b])
    assert c.energy(PKG) == pytest.approx(4.0)
    assert len(c) == 2


def test_planes_listing():
    t = PowerTrace([PowerSegment(0, 1, {PKG: 1.0, Plane.DRAM: 0.5})])
    assert t.planes() == {PKG, Plane.DRAM}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=20))
def test_trace_energy_equals_sum_of_segment_energies(watts):
    segs = [seg(i, i + 1, w) for i, w in enumerate(watts)]
    t = PowerTrace(segs)
    assert t.energy(PKG) == pytest.approx(sum(watts))
    assert t.peak_power(PKG) == max(watts)


def test_resample_does_not_drift():
    """Sample times are ``t_start + k * period``, not a running sum: a
    1 s trace at 0.1 s gives exactly 10 samples, none a spurious 0 W
    point at 0.9999999999999999 s."""
    samples = PowerTrace([seg(0, 1, 7.0)]).resample(0.1, PKG)
    assert len(samples) == 10
    assert [w for _, w in samples] == [7.0] * 10
    assert samples[-1][0] == 9 * 0.1


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e3, allow_nan=False))
def test_resample_at_duration_over_64_gives_64_samples(duration):
    """The Chrome-trace exporter samples at ``duration / 64``."""
    t = PowerTrace([seg(0, duration, 3.0)])
    samples = t.resample(duration / 64, PKG)
    assert len(samples) == 64
    assert all(w == 3.0 for _, w in samples)


def test_resample_reads_gaps_as_zero():
    t = PowerTrace([seg(0, 1, 1.0), seg(2, 3, 2.0)])
    assert t.resample(0.5, PKG) == [
        (0.0, 1.0), (0.5, 1.0), (1.0, 0.0), (1.5, 0.0), (2.0, 2.0), (2.5, 2.0),
    ]


def test_from_columns_round_trips_through_segments():
    import numpy as np

    t = PowerTrace.from_columns(
        np.array([0.0, 1.0]), np.array([1.0, 3.0]),
        {PKG: np.array([10.0, 20.0]), Plane.DRAM: np.array([1.0, 2.0])},
    )
    assert t._segments is None  # built on first use only
    assert t.segments == [
        PowerSegment(0.0, 1.0, {PKG: 10.0, Plane.DRAM: 1.0}),
        PowerSegment(1.0, 3.0, {PKG: 20.0, Plane.DRAM: 2.0}),
    ]
    assert t.segments is t.segments
    assert t.energy(PKG) == 50.0 and t.peak_power(Plane.DRAM) == 2.0
    assert t.planes() == {PKG, Plane.DRAM}
    assert not t.starts.flags.writeable


@pytest.mark.parametrize(
    "starts,ends,watts,match",
    [
        ([0.0, 1.0], [1.0, 0.5], [1.0, 1.0], "duration"),
        ([0.0, 0.5], [1.0, 2.0], [1.0, 1.0], "overlapping"),
        ([0.0, 1.0], [1.0, 2.0], [1.0, -1.0], "watts"),
        ([0.0, 1.0], [1.0, 2.0], [1.0, float("nan")], "watts"),
        ([0.0, 1.0], [1.0, 2.0], [1.0], "shape"),
    ],
)
def test_from_columns_validates_each_column(starts, ends, watts, match):
    with pytest.raises(ValidationError, match=match):
        PowerTrace.from_columns(starts, ends, {PKG: watts})


def test_pickle_holds_only_the_columns():
    import pickle

    t = trace()
    before = pickle.dumps(t)
    assert len(t.segments) == 3
    assert pickle.dumps(t) == before
    back = pickle.loads(before)
    assert back._segments is None
    assert back.segments == t.segments
    assert not back.watts[PKG].flags.writeable
