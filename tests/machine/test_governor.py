"""DVFS governors."""

import pytest

from repro.machine.frequency import FrequencyDomain, PState
from repro.machine.governor import (
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
    governed_machine,
)
from repro.machine.specs import haswell_e3_1225
from repro.util.errors import ConfigurationError
from repro.util.units import GHZ


def dvfs_machine():
    """The paper's machine with power saving re-enabled (3 P-states)."""
    from dataclasses import replace

    domain = FrequencyDomain(
        (PState(1.6 * GHZ, 0.8), PState(2.4 * GHZ, 0.9), PState(3.2 * GHZ, 1.0)),
        active_index=2,
        power_saving_enabled=True,
    )
    return replace(haswell_e3_1225(), frequency=domain)


def test_performance_pins_top():
    gov = PerformanceGovernor()
    assert gov.choose(0.0, 3) == 2
    assert gov.choose(1.0, 3) == 2


def test_powersave_pins_bottom():
    gov = PowersaveGovernor()
    assert gov.choose(1.0, 3) == 0


def test_ondemand_thresholds():
    gov = OndemandGovernor(up_threshold=0.8)
    assert gov.choose(0.9, 3) == 2  # above threshold: top
    assert gov.choose(0.8, 3) == 2
    assert gov.choose(0.05, 3) == 0  # nearly idle: bottom
    # Mid-load lands in between.
    assert 0 <= gov.choose(0.4, 3) <= 2


def test_ondemand_monotone_in_utilization():
    gov = OndemandGovernor()
    choices = [gov.choose(u / 10, 4) for u in range(11)]
    assert choices == sorted(choices)


def test_utilization_validated():
    with pytest.raises(Exception):
        PerformanceGovernor().choose(1.5, 3)


def test_governed_machine_repins_state():
    m = dvfs_machine()
    slow = governed_machine(m, PowersaveGovernor(), utilization=0.9)
    assert slow.frequency.frequency_hz == pytest.approx(1.6 * GHZ)
    assert slow.core_peak_flops < m.core_peak_flops
    assert slow.dvfs_factor < 1.0


def test_governed_machine_performance_noop_frequency():
    m = dvfs_machine()
    fast = governed_machine(m, PerformanceGovernor(), utilization=0.1)
    assert fast.frequency.frequency_hz == m.frequency.frequency_hz


def test_single_pstate_machine_rejects_reactive_governors():
    """The shipped Haswell spec has BIOS power saving disabled — a
    reactive governor has nothing to govern (the paper's setup)."""
    m = haswell_e3_1225()
    with pytest.raises(ConfigurationError):
        governed_machine(m, OndemandGovernor(), utilization=0.5)
    # performance governor keeps the frequency and is allowed.
    governed = governed_machine(m, PerformanceGovernor(), 0.5)
    assert governed.frequency.frequency_hz == m.frequency.frequency_hz


def test_governed_frequency_monotone_in_utilization():
    """Across a fine utilization sweep, the ondemand-governed machine's
    frequency never decreases as load rises — each governor step moves
    the clock monotonically."""
    m = dvfs_machine()
    gov = OndemandGovernor(up_threshold=0.8)
    freqs = [
        governed_machine(m, gov, utilization=u / 20).frequency.frequency_hz
        for u in range(21)
    ]
    assert freqs == sorted(freqs)
    assert freqs[0] == pytest.approx(1.6 * GHZ)  # idle -> bottom state
    assert freqs[-1] == pytest.approx(3.2 * GHZ)  # saturated -> top state


def test_governed_energy_continuous_in_utilization():
    """Simulated energy for a fixed workload, as a function of the
    utilization the governor reacts to, changes only at P-state
    boundaries and by bounded steps — re-governing must never produce a
    wild energy discontinuity."""
    from repro.algorithms import BlockedGemm
    from repro.sim import Engine

    m = dvfs_machine()
    gov = OndemandGovernor(up_threshold=0.8)
    build = BlockedGemm(m).build(128, threads=2, execute=False)
    energies = []
    for u in range(0, 21, 2):
        gm = governed_machine(m, gov, utilization=u / 20)
        energies.append(Engine(gm).run(build.graph, threads=2).energy.package)
    for a, b in zip(energies, energies[1:]):
        assert abs(b - a) / max(a, b) < 0.35, energies


def test_governor_transition_preserves_machine_identity():
    """governed_machine only re-pins the frequency domain: topology,
    caches and the energy model are shared, so a transition cannot
    silently swap the platform."""
    m = dvfs_machine()
    gm = governed_machine(m, PowersaveGovernor(), utilization=0.5)
    assert gm.topology is m.topology
    assert gm.caches is m.caches
    assert gm.frequency.power_saving_enabled
    assert gm.frequency.pstates == m.frequency.pstates  # same ladder


def test_governed_run_trades_time_for_power(machine):
    """End to end: the same graph at the powersave state runs longer
    and draws fewer watts."""
    from repro.algorithms import BlockedGemm
    from repro.sim import Engine

    m = dvfs_machine()
    alg = BlockedGemm(m)
    build = alg.build(256, threads=4, execute=False)
    nominal = Engine(m).run(build.graph, threads=4)
    slow_m = governed_machine(m, PowersaveGovernor(), nominal.stats.utilization)
    slow = Engine(slow_m).run(build.graph, threads=4)
    assert slow.elapsed_s > nominal.elapsed_s
    assert slow.avg_power_w() < nominal.avg_power_w()
