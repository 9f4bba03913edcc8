"""RAPL power-limit enforcement."""

from dataclasses import replace

import pytest

from repro.machine.frequency import FrequencyDomain, PState
from repro.machine.specs import haswell_e3_1225
from repro.power.capping import PowerLimit, enforce_power_limit
from repro.runtime.cost import TaskCost
from repro.runtime.openmp import OpenMP
from repro.util.units import GHZ


def dvfs_machine():
    domain = FrequencyDomain(
        (PState(1.6 * GHZ, 0.8), PState(2.4 * GHZ, 0.9), PState(3.2 * GHZ, 1.0)),
        active_index=2,
        power_saving_enabled=True,
    )
    return replace(haswell_e3_1225(), frequency=domain)


def busy_graph(cores=4):
    omp = OpenMP("busy")
    for i in range(cores * 4):
        omp.task(f"t{i}", TaskCost(flops=5e9, efficiency=0.9))
    return omp.graph


class TestPowerLimit:
    def test_permits(self):
        limit = PowerLimit(30.0)
        assert limit.permits(29.9)
        assert not limit.permits(30.1)

    def test_disabled_permits_everything(self):
        assert PowerLimit(1.0, enabled=False).permits(1000.0)

    def test_validation(self):
        with pytest.raises(Exception):
            PowerLimit(0.0)


class TestEnforcement:
    def test_generous_limit_no_throttle(self):
        m = dvfs_machine()
        run = enforce_power_limit(m, busy_graph(), 4, PowerLimit(500.0))
        assert run.feasible
        assert run.slowdown == pytest.approx(1.0)
        assert run.pstate_index == 2

    def test_tight_limit_throttles(self):
        m = dvfs_machine()
        uncapped = enforce_power_limit(m, busy_graph(), 4, PowerLimit(500.0))
        cap = uncapped.measurement.avg_power_w() - 5.0
        run = enforce_power_limit(m, busy_graph(), 4, PowerLimit(cap))
        assert run.feasible
        assert run.pstate_index < 2
        assert run.slowdown > 1.0
        assert run.measurement.avg_power_w() <= cap + 1e-6
        assert run.power_saving_w > 0

    def test_infeasible_limit_reported(self):
        m = dvfs_machine()
        run = enforce_power_limit(m, busy_graph(), 4, PowerLimit(2.0))
        assert not run.feasible
        assert run.pstate_index == 0  # slowest state was tried

    def test_single_pstate_machine(self, machine):
        """The paper's BIOS-locked machine has nothing to throttle."""
        run = enforce_power_limit(machine, busy_graph(), 4, PowerLimit(5.0))
        assert not run.feasible
        assert run.slowdown == pytest.approx(1.0)

    def test_throttle_monotone_in_limit(self):
        """Tighter limits never pick a faster P-state."""
        m = dvfs_machine()
        g = busy_graph()
        states = [
            enforce_power_limit(m, g, 4, PowerLimit(w)).pstate_index
            for w in (500.0, 40.0, 25.0)
        ]
        assert states == sorted(states, reverse=True)
