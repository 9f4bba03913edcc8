"""Determinism: identical inputs must produce identical simulations.

The whole reproduction rests on the simulator being a pure function of
its inputs — no wall-clock, no unseeded randomness.  These tests rerun
representative paths and require bit-identical results.
"""

import numpy as np
import pytest

from repro import EnergyPerformanceStudy, StudyConfig
from repro.algorithms import CapsStrassen, StrassenWinograd, paper_algorithms
from repro.runtime.scheduler import Scheduler
from repro.sim import Engine


def test_scheduler_is_deterministic(machine):
    alg = StrassenWinograd(machine)
    a = alg.build(256, threads=4, execute=False)
    b = alg.build(256, threads=4, execute=False)
    sa = Scheduler(machine, 4).run(a.graph)
    sb = Scheduler(machine, 4).run(b.graph)
    assert sa.makespan == sb.makespan
    assert [(r.tid, r.core, r.start, r.end) for r in sa.records] == [
        (r.tid, r.core, r.start, r.end) for r in sb.records
    ]


def test_steal_policy_deterministic(machine):
    alg = CapsStrassen(machine)
    graphs = [alg.build(256, threads=4, execute=False).graph for _ in range(2)]
    runs = [
        Scheduler(machine, 4, policy="steal").run(g) for g in graphs
    ]
    assert runs[0].makespan == runs[1].makespan
    assert runs[0].stats.steals == runs[1].stats.steals


def test_engine_measurements_identical(machine):
    alg = StrassenWinograd(machine)
    engine = Engine(machine)
    m1 = engine.run(alg.build(128, 2, execute=False).graph, 2)
    m2 = engine.run(alg.build(128, 2, execute=False).graph, 2)
    assert m1.elapsed_s == m2.elapsed_s
    assert m1.energy.package == m2.energy.package
    assert m1.energy.pp0 == m2.energy.pp0
    assert m1.energy.dram == m2.energy.dram


def test_study_reproducible_end_to_end(machine):
    cfg = StudyConfig(sizes=(128,), threads=(1, 2), execute_max_n=128, seed=5)
    r1 = EnergyPerformanceStudy(machine, paper_algorithms(machine), cfg).run()
    r2 = EnergyPerformanceStudy(machine, paper_algorithms(machine), cfg).run()
    for key in r1.runs:
        assert r1.runs[key].elapsed_s == r2.runs[key].elapsed_s
        assert r1.runs[key].energy.package == r2.runs[key].energy.package


def test_numerics_deterministic(machine):
    alg = StrassenWinograd(machine, cutoff=32, grain=32)
    builds = [alg.build(128, threads=4, seed=3) for _ in range(2)]
    engine = Engine(machine)
    for b in builds:
        engine.run(b.graph, threads=4)
    assert np.array_equal(builds[0].c, builds[1].c)


def test_sparse_generators_deterministic():
    from repro.sparse import power_law

    a = power_law(64, avg_degree=5, seed=11)
    b = power_law(64, avg_degree=5, seed=11)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.values, b.values)
