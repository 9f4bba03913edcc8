"""Equations 1-4: energy-performance ratios."""

import pytest
from hypothesis import given, strategies as st

from repro.core.ep import EPMeasurement, ep_ratio, ep_total, ep_total_planes
from repro.power.planes import Plane
from repro.util.errors import ValidationError


class TestEq1:
    def test_hand_case(self):
        # Table IV style: EAvg = 20 W over 3.15 ms -> EP ~ 6349.
        assert ep_ratio(20.0, 0.00315) == pytest.approx(6349.2, rel=1e-4)

    def test_zero_time_rejected(self):
        with pytest.raises(ValidationError):
            ep_ratio(10.0, 0.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValidationError):
            ep_ratio(-1.0, 1.0)

    @given(st.floats(min_value=0.01, max_value=1e3), st.floats(min_value=1e-6, max_value=1e3))
    def test_homogeneity(self, e, t):
        # Doubling both energy and time leaves EP unchanged.
        assert ep_ratio(2 * e, 2 * t) == pytest.approx(ep_ratio(e, t))


class TestEq2:
    def test_hand_case(self):
        # Sequential: 5 units over 2 s; parallel max: 10 units, max T 3 s.
        assert ep_total(5.0, [8.0, 10.0], 2.0, [2.5, 3.0]) == pytest.approx(15.0 / 5.0)

    def test_max_semantics(self):
        """Eq. 2 takes the max over parallel units, not the sum."""
        v = ep_total(0.0, [1.0, 100.0], 0.0, [1.0, 1.0])
        assert v == 100.0

    def test_pure_parallel_reduces_to_eq1(self):
        assert ep_total(0.0, [7.0], 0.0, [2.0]) == ep_ratio(7.0, 2.0)

    def test_pure_sequential(self):
        assert ep_total(10.0, [0.0], 5.0, [0.0]) == 2.0

    def test_empty_parallel_rejected(self):
        with pytest.raises(ValidationError):
            ep_total(1.0, [], 1.0, [])

    def test_zero_total_time_rejected(self):
        with pytest.raises(ValidationError):
            ep_total(1.0, [1.0], 0.0, [0.0])


class TestEq4:
    def test_planes_expand_per_eq3(self):
        seq = {Plane.PACKAGE: 4.0, Plane.DRAM: 1.0}
        par = [
            {Plane.PACKAGE: 10.0, Plane.DRAM: 2.0},
            {Plane.PACKAGE: 8.0, Plane.DRAM: 5.0},
        ]
        # EAvg_s = 5; max parallel sums = max(12, 13) = 13.
        v = ep_total_planes(seq, par, 1.0, [1.0, 1.0])
        assert v == pytest.approx((5.0 + 13.0) / 2.0)

    def test_pp0_not_double_counted(self):
        par = [{Plane.PACKAGE: 10.0, Plane.PP0: 6.0}]
        assert ep_total_planes({}, par, 0.0, [2.0]) == pytest.approx(5.0)

    def test_empty_sequential_planes_ok(self):
        assert ep_total_planes({}, [{Plane.PACKAGE: 4.0}], 0.0, [2.0]) == 2.0


class TestEPMeasurement:
    def _measurement(self, engine):
        from repro.runtime.cost import TaskCost
        from repro.runtime.openmp import OpenMP

        omp = OpenMP("graph")
        omp.task("t", TaskCost(flops=51.2e9))
        return engine.run(omp.graph, threads=1)

    def test_power_convention_is_avg_watts_over_time(self, engine):
        m = self._measurement(engine)
        epm = EPMeasurement(m, convention="power")
        assert epm.eavg == pytest.approx(m.avg_power_w())
        assert epm.ep == pytest.approx(m.avg_power_w() / m.elapsed_s)

    def test_energy_convention(self, engine):
        m = self._measurement(engine)
        epm = EPMeasurement(m, convention="energy")
        assert epm.eavg == pytest.approx(m.energy.package)
        # Under the energy convention, EP is just average watts.
        assert epm.ep == pytest.approx(m.avg_power_w())

    def test_plane_selection(self, engine):
        m = self._measurement(engine)
        pp0 = EPMeasurement(m, plane=Plane.PP0, convention="power")
        pkg = EPMeasurement(m, plane=Plane.PACKAGE, convention="power")
        assert pp0.ep < pkg.ep


class TestEq2Properties:
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None)
    @given(
        eavgs=st.lists(st.floats(min_value=0, max_value=1e3), min_size=1, max_size=8),
        times=st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=8),
        seq_e=st.floats(min_value=0, max_value=1e3),
        seq_t=st.floats(min_value=0, max_value=1e3),
    )
    def test_permutation_invariance(self, eavgs, times, seq_e, seq_t):
        """Eq. 2 takes max over units: unit ordering cannot matter."""
        import itertools

        k = min(len(eavgs), len(times))
        eavgs, times = eavgs[:k], times[:k]
        baseline = ep_total(seq_e, eavgs, seq_t, times)
        rotated = ep_total(seq_e, eavgs[::-1], seq_t, times[::-1])
        assert rotated == pytest.approx(baseline, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        eavgs=st.lists(st.floats(min_value=0, max_value=1e3), min_size=1, max_size=8),
        times=st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=8),
    )
    def test_adding_a_cheaper_faster_unit_is_free(self, eavgs, times):
        """A parallel unit below both maxima never changes EP_t."""
        k = min(len(eavgs), len(times))
        eavgs, times = eavgs[:k], times[:k]
        baseline = ep_total(1.0, eavgs, 1.0, times)
        extra_e = min(eavgs) * 0.5
        extra_t = min(times) * 0.5
        extended = ep_total(1.0, eavgs + [extra_e], 1.0, times + [extra_t])
        assert extended == pytest.approx(baseline, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        e=st.floats(min_value=0.1, max_value=100),
        t=st.floats(min_value=0.01, max_value=100),
        factor=st.floats(min_value=1.01, max_value=10),
    )
    def test_slower_max_unit_lowers_ep_under_power_convention(self, e, t, factor):
        """Stretching the slowest unit's time (same watts) lowers EP_t —
        longer runs at equal power are worse on the ratio."""
        fast = ep_total(0.0, [e], 0.0, [t])
        slow = ep_total(0.0, [e], 0.0, [t * factor])
        assert slow < fast
