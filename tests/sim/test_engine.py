"""Execution engine: energy accounting, traces, MSR deposits."""

import pytest

from repro.power.msr import MsrFile
from repro.power.papi import PapiLibrary
from repro.power.planes import Plane
from repro.runtime.cost import TaskCost
from repro.runtime.openmp import OpenMP
from repro.sim.engine import Engine


def demo_graph(n_parallel=7):
    omp = OpenMP("demo", 4)
    pre = omp.task("pre", TaskCost(flops=1e9, efficiency=0.9, bytes_dram=5e7))
    muls = [
        omp.task(f"mul{i}", TaskCost(flops=2e9, efficiency=0.4, bytes_dram=1e8), deps=[pre])
        for i in range(n_parallel)
    ]
    j = omp.taskwait(muls)
    omp.task("post", TaskCost(flops=5e8, efficiency=0.5, bytes_dram=2e8), deps=[j])
    return omp.graph


def test_run_produces_consistent_measurement(machine, engine):
    meas = engine.run(demo_graph(), threads=4)
    meas.check_invariants(machine)
    assert meas.elapsed_s > 0
    assert meas.energy.package > meas.energy.pp0
    assert meas.flops == pytest.approx(1e9 + 7 * 2e9 + 5e8)


def test_energy_includes_static_floor(machine, engine):
    meas = engine.run(demo_graph(), threads=1)
    floor = machine.energy.package_static_w * meas.elapsed_s
    assert meas.energy.package > floor


def test_trace_energy_matches_accounting(engine):
    meas = engine.run(demo_graph(), threads=2)
    assert meas.trace.energy(Plane.PACKAGE) == pytest.approx(
        meas.energy.package, rel=1e-9
    )
    assert meas.trace.energy(Plane.DRAM) == pytest.approx(meas.energy.dram, rel=1e-9)


def test_more_threads_faster_but_more_power(engine):
    m1 = engine.run(demo_graph(), threads=1)
    m4 = engine.run(demo_graph(), threads=4)
    assert m4.elapsed_s < m1.elapsed_s
    assert m4.avg_power_w() > m1.avg_power_w()


def test_energy_conservation_across_threads(engine):
    """Dynamic energy (work) is thread-count independent; only the
    static-power-over-time part changes."""
    m1 = engine.run(demo_graph(), threads=1)
    m4 = engine.run(demo_graph(), threads=4)
    static = engine.machine.energy.package_static_w
    dyn1 = m1.energy.package - static * m1.elapsed_s
    dyn4 = m4.energy.package - static * m4.elapsed_s
    # Busy-core power also scales with busy time, so remove it too.
    core_w = engine.machine.energy.core_active_w
    dyn1 -= core_w * m1.stats.busy_core_seconds
    dyn4 -= core_w * m4.stats.busy_core_seconds
    assert dyn1 == pytest.approx(dyn4, rel=1e-9)


def test_msr_deposit_feeds_papi(machine):
    msr = MsrFile()
    engine = Engine(machine, msr=msr)
    papi = PapiLibrary(msr)
    es = papi.create_eventset()
    es.add_event("rapl:::PACKAGE_ENERGY:PACKAGE0")
    es.start()
    meas = engine.run(demo_graph(), threads=4)
    (pkg_nj,) = es.stop()
    assert pkg_nj / 1e9 == pytest.approx(meas.energy.package, rel=1e-4)


def test_trace_coarsening_preserves_energy(machine):
    fine = Engine(machine, max_trace_segments=100000)
    coarse = Engine(machine, max_trace_segments=4)
    g = demo_graph()
    mf = fine.run(g, threads=4)
    mc = coarse.run(g, threads=4)
    assert len(mc.trace) <= 8  # a few segments after coarsening
    assert mc.energy.package == pytest.approx(mf.energy.package, rel=1e-9)
    assert mc.elapsed_s == pytest.approx(mf.elapsed_s)


def test_idle_measurement(machine, engine):
    meas = engine.idle_measurement(60.0)
    assert meas.elapsed_s == 60.0
    assert meas.avg_power_w() == pytest.approx(machine.energy.package_static_w)
    assert meas.flops == 0


def test_empty_graph(engine):
    omp = OpenMP("empty")
    omp.task("only-join")  # zero-cost source
    meas = engine.run(omp.graph, threads=1)
    assert meas.elapsed_s == 0.0
    assert meas.energy.package == 0.0


def test_label(engine):
    meas = engine.run(demo_graph(), threads=1, label="custom")
    assert meas.label == "custom"
    assert "custom" in meas.summary()
