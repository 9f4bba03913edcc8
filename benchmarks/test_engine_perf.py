"""Simulator performance: how fast the substrate itself runs.

These are true pytest-benchmark microbenchmarks (many rounds) of the
three hot paths: the discrete-event scheduler, task-graph lowering and
the trace-driven cache simulator.
"""

import pytest

from repro.algorithms import StrassenWinograd
from repro.machine.cache import CacheHierarchySim, CacheHierarchySpec
from repro.runtime.cost import TaskCost
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import TaskGraph


def _wide_graph(tasks=2000):
    g = TaskGraph("wide")
    for i in range(tasks):
        g.add(f"t{i}", TaskCost(flops=1e8, bytes_dram=1e5))
    return g


def test_scheduler_throughput(benchmark, machine):
    """Tasks scheduled per call over a 2000-task graph."""
    g = _wide_graph()
    scheduler = Scheduler(machine, threads=4)
    result = benchmark(scheduler.run, g)
    assert len(result.records) == 2000


def test_strassen_lowering_throughput(benchmark, machine):
    """Task-graph construction for a 512^2 problem (cost-only)."""
    alg = StrassenWinograd(machine)
    build = benchmark(alg.build, 512, 4, 0, False)
    assert len(build.graph) > 50


def test_cache_sim_throughput(benchmark):
    """Accesses per second through the 3-level LRU hierarchy."""
    spec = CacheHierarchySpec.haswell_like()

    def stream():
        sim = CacheHierarchySim(spec)
        sim.access_range(0, 64 * 1024, stride=64)
        return sim

    sim = benchmark(stream)
    assert sim.memory_bytes == 64 * 1024
