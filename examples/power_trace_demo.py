#!/usr/bin/env python
"""The measurement stack end-to-end: PAPI -> RAPL -> MSR, plus power
traces and a schedule Gantt view.

Reproduces the paper's instrumentation workflow (§V-C): a PAPI event
set wraps a kernel run and reads the package and PP0 planes, exactly as
the paper's driver did — except the "hardware" is the emulated MSR file
fed by the simulator.

Run:  python examples/power_trace_demo.py
"""

from repro.algorithms import CapsStrassen, StrassenWinograd
from repro.machine import haswell_e3_1225
from repro.power import MsrFile, PapiLibrary, Plane
from repro.reporting import render_gantt
from repro.runtime import Scheduler
from repro.sim import Engine


def main() -> None:
    machine = haswell_e3_1225()
    msr = MsrFile()
    engine = Engine(machine, msr=msr)

    # --- the paper's PAPI workflow -----------------------------------
    papi = PapiLibrary(msr)
    eventset = papi.create_eventset()
    eventset.add_event("rapl:::PACKAGE_ENERGY:PACKAGE0")
    eventset.add_event("rapl:::PP0_ENERGY:PACKAGE0")
    eventset.start()

    alg = StrassenWinograd(machine)
    build = alg.build_cached(512, threads=4)
    measurement, schedule = engine.simulate(build.graph, threads=4)
    pkg_nj, pp0_nj = eventset.stop()

    # Numerics: replay the executed lowering in the simulated schedule.
    report = alg.check_numerics(512, 4, schedule, build.graph)
    print(f"Strassen 512^2 on 4 threads: {measurement.summary()}")
    print(f"verified vs numpy: err={report.abs_error:.2e} (bound {report.bound:.2e})")
    print(f"PAPI readings: PACKAGE={pkg_nj / 1e9:.3f} J, PP0={pp0_nj / 1e9:.3f} J")
    print()

    # --- power trace sampling ----------------------------------------
    trace = measurement.trace
    print("package power sampled every 10% of the run:")
    period = trace.duration / 10
    for t, watts in trace.resample(period, Plane.PACKAGE):
        bar = "#" * int(watts)
        print(f"  t={t * 1e3:7.2f} ms  {watts:5.1f} W  {bar}")
    print(
        f"  avg {trace.average_power(Plane.PACKAGE):.1f} W, "
        f"peak {trace.peak_power(Plane.PACKAGE):.1f} W"
    )
    print()

    # --- why CAPS keeps cores busier: Gantt views --------------------
    for algorithm in (StrassenWinograd(machine), CapsStrassen(machine)):
        b = algorithm.build(256, threads=4, execute=False)
        schedule = Scheduler(machine, threads=4).run(b.graph)
        print(render_gantt(schedule, width=68))
        print()

    # --- where the joules go: per-task-group attribution -------------
    from repro.sim import attribute_energy, attribution_table

    b = StrassenWinograd(machine).build(1024, threads=4, execute=False)
    schedule = Scheduler(machine, threads=4).run(b.graph)
    groups = attribute_energy(schedule, b.graph, machine)
    print("Strassen n=1024 energy attribution (multiplies vs communication):")
    print(attribution_table(groups).to_ascii())
    comm = groups["pre"].total_j + groups["post"].total_j
    total = sum(g.total_j for g in groups.values())
    print(
        f"\n{comm / total:.0%} of the energy goes to the additions - the\n"
        "'communication' CAPS is built to avoid."
    )


if __name__ == "__main__":
    main()
