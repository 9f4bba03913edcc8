"""Gantt rendering."""

import pytest

from repro.reporting.gantt import render_gantt
from repro.runtime.cost import TaskCost
from repro.runtime.openmp import OpenMP
from repro.runtime.scheduler import Scheduler
from repro.util.errors import ValidationError


def test_render_shows_cores_and_utilization(machine):
    omp = OpenMP("g")
    for i in range(4):
        omp.task(f"t{i}", TaskCost(flops=1e9))
    sched = Scheduler(machine, threads=2).run(omp.graph)
    out = render_gantt(sched, width=20)
    assert "core 0:" in out and "core 1:" in out
    assert "#" in out
    assert "2 threads" in out


def test_idle_core_shows_dots(machine):
    omp = OpenMP("g")
    omp.task("only", TaskCost(flops=1e9))
    sched = Scheduler(machine, threads=2).run(omp.graph)
    out = render_gantt(sched, width=10)
    lines = out.splitlines()
    assert lines[2].endswith("." * 10)  # second core idle


def test_width_validation(machine):
    omp = OpenMP("g")
    omp.task("t", TaskCost(flops=1e9))
    sched = Scheduler(machine, threads=1).run(omp.graph)
    with pytest.raises(ValidationError):
        render_gantt(sched, width=2)
