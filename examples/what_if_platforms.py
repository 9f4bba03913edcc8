#!/usr/bin/env python
"""What-if platform studies: the knobs the paper's testbed fixed.

Three questions the simulated substrate can answer that the paper's
single machine could not:

1. *What if the memory system were wider?*  (§VIII "larger platforms")
   — sweep channels and watch the Strassen family's scaling recover and
   the Eq. 9 crossover drop into range.
2. *What did disabling BIOS power saving cost?*  — re-enable DVFS and
   compare the ondemand/powersave governors against the paper's pinned
   3.2 GHz.
3. *What does a facility power cap do to the runtime?*  — enforce
   RAPL-style PL1 limits and measure the throttle's slowdown.

Run:  python examples/what_if_platforms.py
"""

from dataclasses import replace

from repro.algorithms import BlockedGemm, StrassenWinograd
from repro.core import channel_sweep, sensitivity_table
from repro.machine import (
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
    governed_machine,
    haswell_e3_1225,
)
from repro.machine.frequency import FrequencyDomain, PState
from repro.power import PowerLimit, enforce_power_limit
from repro.sim import Engine
from repro.util.tables import TextTable
from repro.util.units import GHZ


def dvfs_enabled_machine():
    """The paper's machine with the BIOS power saving turned back on."""
    domain = FrequencyDomain(
        (PState(1.6 * GHZ, 0.80), PState(2.4 * GHZ, 0.90), PState(3.2 * GHZ, 1.0)),
        active_index=2,
        power_saving_enabled=True,
    )
    return replace(haswell_e3_1225(), frequency=domain)


def part1_channels() -> None:
    print("1. memory-channel sensitivity (paper platform = 1 channel)")
    points = channel_sweep(
        haswell_e3_1225(), channels=(1, 2, 4), sizes=(512, 1024), threads=(1, 2, 4)
    )
    print(sensitivity_table(points).to_ascii())
    print(
        "\nThe paper's conclusions are creatures of the single DIMM: with\n"
        "more channels the Strassen family scales again and the Eq. 9\n"
        "crossover becomes reachable. OpenBLAS's superlinear EP class\n"
        "survives every variant (its power growth is core-side).\n"
    )


def part2_governors() -> None:
    print("2. DVFS governors (the feature the paper disabled in BIOS)")
    machine = dvfs_enabled_machine()
    table = TextTable(
        ["workload", "governor", "GHz", "time (s)", "avg W", "J"], ndigits=4
    )
    for label, alg in (
        ("blocked (compute-bound)", BlockedGemm(machine)),
        ("strassen (bandwidth-bound)", StrassenWinograd(machine)),
    ):
        build = alg.build_arena(1024, threads=4)
        nominal = Engine(machine).run(build.graph, threads=4)
        for governor in (
            PerformanceGovernor(),
            OndemandGovernor(),
            PowersaveGovernor(),
        ):
            governed = governed_machine(
                machine, governor, nominal.stats.utilization
            )
            meas = Engine(governed).run(build.graph, threads=4)
            table.add_row(
                label,
                governor.name,
                governed.frequency.frequency_hz / 1e9,
                meas.elapsed_s,
                meas.avg_power_w(),
                meas.energy.package,
            )
    print(table.to_ascii())
    print(
        "\nThe split verdict the paper's fixed-frequency BIOS hid: the\n"
        "compute-bound blocked DGEMM pays ~2x runtime for powersave's\n"
        "watts, but the bandwidth-bound Strassen at four threads loses\n"
        "NOTHING — its channel-limited runtime is frequency-insensitive,\n"
        "so halving the clock is free energy savings. Busy workloads keep\n"
        "ondemand pinned at the top state either way.\n"
    )


def part3_power_caps() -> None:
    print("3. RAPL PL1 enforcement (facility power caps)")
    machine = dvfs_enabled_machine()
    build = BlockedGemm(machine).build_arena(1024, threads=4)
    table = TextTable(
        ["PL1 (W)", "feasible", "P-state", "time (s)", "avg W", "slowdown"],
        ndigits=4,
    )
    for watts in (200.0, 40.0, 30.0, 20.0, 5.0):
        run = enforce_power_limit(machine, build.graph, 4, PowerLimit(watts))
        table.add_row(
            watts,
            str(run.feasible),
            run.pstate_index,
            run.measurement.elapsed_s,
            run.measurement.avg_power_w(),
            run.slowdown,
        )
    print(table.to_ascii())
    print(
        "\nTightening the limit walks the package down the P-states and\n"
        "stretches the run — the §VI-D facility scenario, enforced the\n"
        "way real RAPL does it."
    )


if __name__ == "__main__":
    part1_channels()
    print("=" * 72)
    part2_governors()
    print("=" * 72)
    part3_power_caps()
