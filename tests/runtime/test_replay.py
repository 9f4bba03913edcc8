"""The numerics replay: closures run in a schedule's start order, and
every defect that would compute a wrong product raises instead."""

import numpy as np
import pytest

from repro.algorithms import CapsStrassen, StrassenWinograd
from repro.runtime.cost import TaskCost
from repro.runtime.replay import replay, replay_numerics
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import TaskGraph
from repro.util.errors import SchedulingError


def chain(names, log):
    """A dependency chain whose closures append their names to *log*."""
    g = TaskGraph("chain")
    prev = ()
    for name in names:
        tid = g.add(
            name, TaskCost(flops=1e6), deps=prev,
            compute=lambda name=name: log.append(name),
        )
        prev = [tid]
    return g


def test_replay_runs_closures_in_start_order(machine):
    log = []
    g = chain("abc", log)
    g.add("side", TaskCost(flops=1e9), compute=lambda: log.append("side"))
    schedule = Scheduler(machine, 2).run(g)
    assert log == []  # the scheduler never runs closures
    replay(g, schedule.start_order())
    starts = {rec.tid: rec.start for rec in schedule.records}
    assert sorted(range(4), key=lambda tid: starts[tid]) == schedule.start_order()
    assert log.index("a") < log.index("b") < log.index("c")
    assert sorted(log) == ["a", "b", "c", "side"]


def test_start_order_is_stable_over_zero_cost_joins(machine):
    """A zero-cost join starts when its dependency ends; the stable
    sort keeps it after that dependency even at equal start times."""
    log = []
    g = TaskGraph("joins")
    a = g.add("a", TaskCost(flops=1e6), compute=lambda: log.append("a"))
    j1 = g.add("j1", TaskCost(), deps=[a], compute=lambda: log.append("j1"))
    j2 = g.add("j2", TaskCost(), deps=[j1], compute=lambda: log.append("j2"))
    g.add("b", TaskCost(flops=1e6), deps=[j2], compute=lambda: log.append("b"))
    for engine in ("reference", "fast"):
        log.clear()
        replay(g, Scheduler(machine, 1, engine=engine).run(g).start_order())
        assert log == ["a", "j1", "j2", "b"], engine


def test_order_running_a_task_before_its_dependency_raises():
    log = []
    g = chain("abc", log)
    with pytest.raises(SchedulingError, match="'b' before its dependency 'a'"):
        replay(g, [1, 0, 2])
    assert log == []  # nothing ran past the defect


@pytest.mark.parametrize(
    "order, match",
    [([0, 1], "2 entries for 3 tasks"), ([0, 0, 1], "runs 'a' twice")],
)
def test_order_that_is_not_a_permutation_raises(order, match):
    with pytest.raises(SchedulingError, match=match):
        replay(chain("abc", []), order)


def test_graph_longer_or_shorter_than_the_arena_raises(machine):
    alg = StrassenWinograd(machine, cutoff=32, grain=32)
    arena = alg.build_cached(128, 2).graph
    executed = alg.build(128, 2)
    executed.graph.add("extra", TaskCost())
    order = list(range(len(executed.graph)))
    with pytest.raises(SchedulingError, match="tasks but the simulated graph has"):
        replay(executed.graph, order, arena)
    assert np.all(executed.c == 0.0)


def test_graph_with_other_names_than_the_arena_raises(machine):
    executed = StrassenWinograd(machine, cutoff=32, grain=32).build(128, 2)
    assert len(executed.graph) > 5
    renamed = TaskGraph("renamed")
    for task in executed.graph.tasks:
        name = "other" if task.tid == 5 else task.name
        renamed.add(name, task.cost, deps=task.deps)
    order = list(range(len(executed.graph)))
    with pytest.raises(SchedulingError, match="differs from the simulated graph at task 5"):
        replay(executed.graph, order, renamed.to_arena())
    assert np.all(executed.c == 0.0)


def test_replay_numerics_verifies_the_arena_schedule(machine):
    """Lower, replay in the arena's schedule, verify — for every
    algorithm, at a size that pads."""
    for alg in (
        StrassenWinograd(machine, cutoff=32),
        StrassenWinograd(machine, cutoff=32, odd_strategy="peel"),
        CapsStrassen(machine, leaf_cutoff=32),
    ):
        arena = alg.build_cached(100, 2).graph
        schedule = Scheduler(machine, 2).run(arena)
        report = replay_numerics(
            lambda: alg.build(100, 2, execute=True), schedule, arena
        )
        assert report.ok, alg.name
