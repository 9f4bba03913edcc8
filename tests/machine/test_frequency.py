"""Frequency domains and DVFS."""

import pytest

from repro.machine.frequency import FrequencyDomain, PState, fixed_frequency
from repro.util.errors import ConfigurationError
from repro.util.units import GHZ


def test_fixed_frequency_defaults():
    dom = fixed_frequency()
    assert dom.frequency_hz == 3.2 * GHZ
    assert not dom.power_saving_enabled
    assert len(dom.pstates) == 1


def test_pstate_validation():
    with pytest.raises(Exception):
        PState(0.0)
    with pytest.raises(Exception):
        PState(1e9, voltage=0)


def test_dynamic_power_factor_fv2():
    p = PState(2e9, voltage=0.9)
    assert p.dynamic_power_factor == pytest.approx(2e9 * 0.81)


def _dvfs():
    return FrequencyDomain(
        (PState(1.6 * GHZ, 0.8), PState(2.4 * GHZ, 0.9), PState(3.2 * GHZ, 1.0)),
        active_index=2,
        power_saving_enabled=True,
    )


def test_pstates_must_be_sorted():
    with pytest.raises(ConfigurationError):
        FrequencyDomain((PState(3e9), PState(2e9)))


def test_active_index_bounds():
    with pytest.raises(ConfigurationError):
        FrequencyDomain((PState(1e9),), active_index=1)


def test_at_state_returns_new_domain():
    dom = _dvfs()
    low = dom.at_state(0)
    assert low.frequency_hz == 1.6 * GHZ
    assert dom.frequency_hz == 3.2 * GHZ  # original untouched
    with pytest.raises(ConfigurationError):
        dom.at_state(5)


def test_scaled_dynamic_power_monotone_in_pstate():
    dom = _dvfs()
    powers = [dom.at_state(i).scaled_dynamic_power(10.0) for i in range(3)]
    assert powers == sorted(powers)
    assert powers[2] == pytest.approx(10.0)  # nominal state = quoted power


def test_cycles_to_seconds():
    dom = fixed_frequency(2e9)
    assert dom.cycles_to_seconds(4e9) == pytest.approx(2.0)


def test_describe_mentions_mode():
    assert "fixed" in fixed_frequency().describe()
    assert "DVFS" in _dvfs().describe()


# ---------------------------------------------------------------------------
# DVFS transitions: monotone frequency ladders, continuous energy


def _ladder(k: int = 9) -> FrequencyDomain:
    """A dense P-state ladder, 1.6 -> 3.2 GHz with voltage ~ linear in
    frequency (the classic DVFS operating curve)."""
    states = []
    for i in range(k):
        f = 1.6 * GHZ + (3.2 - 1.6) * GHZ * i / (k - 1)
        v = 0.8 + 0.2 * i / (k - 1)
        states.append(PState(f, v))
    return FrequencyDomain(tuple(states), active_index=k - 1, power_saving_enabled=True)


def _dvfs_machine(domain: FrequencyDomain):
    from dataclasses import replace

    from repro.machine.specs import haswell_e3_1225

    return replace(haswell_e3_1225(), frequency=domain)


def _run_at_state(domain: FrequencyDomain, index: int):
    """Simulate the same workload with the domain pinned to *index*."""
    from repro.algorithms import BlockedGemm

    machine = _dvfs_machine(domain.at_state(index))
    build = BlockedGemm(machine).build_arena(128, threads=2)
    from repro.sim import Engine

    return Engine(machine).run(build.graph, threads=2)


def test_frequency_and_dynamic_power_monotone_along_ladder():
    """Stepping the governor up one P-state at a time must raise the
    clock and the scaled dynamic power monotonically — a transition
    can never move frequency and power in opposite directions."""
    dom = _ladder()
    freqs = [dom.at_state(i).frequency_hz for i in range(len(dom.pstates))]
    powers = [dom.at_state(i).scaled_dynamic_power(10.0) for i in range(len(dom.pstates))]
    assert freqs == sorted(freqs) and len(set(freqs)) == len(freqs)
    assert powers == sorted(powers) and len(set(powers)) == len(powers)


def test_simulated_time_monotone_across_pstates():
    """The same workload never gets slower at a higher P-state, and
    never draws less power: throttling trades runtime for watts."""
    dom = _ladder(5)
    runs = [_run_at_state(dom, i) for i in range(5)]
    elapsed = [m.elapsed_s for m in runs]
    assert elapsed == sorted(elapsed, reverse=True)
    watts = [m.avg_power_w() for m in runs]
    assert watts == sorted(watts)


def test_energy_varies_continuously_across_adjacent_pstates():
    """Energy as a function of the governed P-state has no jumps: on a
    dense ladder, adjacent states differ by a bounded relative step
    (discrete continuity).  A transition-handling bug — e.g. applying
    the new frequency to time but not to power — shows up as an O(1)
    discontinuity somewhere along the ladder."""
    dom = _ladder(9)
    energies = [_run_at_state(dom, i).energy.package for i in range(9)]
    for a, b in zip(energies, energies[1:]):
        assert abs(b - a) / max(a, b) < 0.20, energies


def test_energy_integral_continuous_across_a_transition():
    """Splice a run at P-state i and a run at P-state i+1 into one
    timeline (a modelled DVFS transition at the splice point): the
    concatenated power trace must integrate to exactly the sum of the
    two runs' energies — no energy created or lost at the boundary."""
    from repro.power.planes import Plane
    from repro.power.sampling import PowerSegment, PowerTrace

    dom = _ladder(5)
    low = _run_at_state(dom, 1)
    high = _run_at_state(dom, 2)
    offset = low.trace.t_end
    shifted = [
        PowerSegment(seg.t_start + offset, seg.t_end + offset, seg.watts)
        for seg in high.trace.segments
    ]
    spliced = PowerTrace.concat([low.trace, PowerTrace(shifted)])
    for plane in (Plane.PACKAGE, Plane.PP0, Plane.DRAM):
        total = low.trace.energy(plane) + high.trace.energy(plane)
        assert spliced.energy(plane) == pytest.approx(total, rel=1e-12)
    # The spliced timeline is gap-free: its span is the sum of spans.
    assert spliced.duration == pytest.approx(
        low.trace.duration + high.trace.duration, rel=1e-12
    )
    # Instantaneous power just after the transition is the high-state
    # power, not a blend or a zero gap.
    eps = high.trace.duration * 1e-6
    assert spliced.power_at(offset + eps, Plane.PACKAGE) == pytest.approx(
        high.trace.power_at(eps, Plane.PACKAGE)
    )
