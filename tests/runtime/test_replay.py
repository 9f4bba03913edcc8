"""The numerics replay: closures (and the dense numerics programs) run
in a schedule's start order, and every defect that would compute a
wrong product raises instead."""

import pytest

from repro.algorithms import CapsStrassen, StrassenWinograd
from repro.runtime.cost import TaskCost
from repro.runtime.openmp import OpenMP
from repro.runtime.replay import check_order, replay
from repro.runtime.scheduler import Scheduler
from repro.testing.taskgraph import TaskGraph
from repro.util.errors import SchedulingError


def chain(names, log):
    """A dependency chain whose closures append their names to *log*."""
    omp = OpenMP("chain")
    prev = ()
    for name in names:
        tid = omp.task(
            name, TaskCost(flops=1e6), deps=prev,
            compute=lambda name=name: log.append(name),
        )
        prev = [tid]
    return omp


def test_replay_runs_closures_in_start_order(machine):
    log = []
    omp = chain("abc", log)
    omp.task("side", TaskCost(flops=1e9), compute=lambda: log.append("side"))
    schedule = Scheduler(machine, 2).run(omp.graph)
    assert log == []  # the scheduler never runs closures
    replay(omp.graph, omp.computes, schedule.start_order())
    starts = {rec.tid: rec.start for rec in schedule.records}
    assert sorted(range(4), key=lambda tid: starts[tid]) == schedule.start_order()
    assert log.index("a") < log.index("b") < log.index("c")
    assert sorted(log) == ["a", "b", "c", "side"]


def test_start_order_is_stable_over_zero_cost_joins(machine):
    """A zero-cost join starts when its dependency ends; the stable
    sort keeps it after that dependency even at equal start times."""
    log = []
    omp = OpenMP("joins")
    a = omp.task("a", TaskCost(flops=1e6), compute=lambda: log.append("a"))
    j1 = omp.task("j1", TaskCost(), deps=[a], compute=lambda: log.append("j1"))
    j2 = omp.task("j2", TaskCost(), deps=[j1], compute=lambda: log.append("j2"))
    omp.task("b", TaskCost(flops=1e6), deps=[j2], compute=lambda: log.append("b"))
    for engine in ("reference", "fast"):
        log.clear()
        order = Scheduler(machine, 1, engine=engine).run(omp.graph).start_order()
        replay(omp.graph, omp.computes, order)
        assert log == ["a", "j1", "j2", "b"], engine


def test_order_running_a_task_before_its_dependency_raises():
    log = []
    omp = chain("abc", log)
    with pytest.raises(SchedulingError, match="'b' before its dependency 'a'"):
        replay(omp.graph, omp.computes, [1, 0, 2])
    assert log == []  # nothing ran past the defect


@pytest.mark.parametrize(
    "order, match",
    [([0, 1], "2 entries for 3 tasks"), ([0, 0, 1], "runs 'a' twice")],
)
def test_order_that_is_not_a_permutation_raises(order, match):
    omp = chain("abc", [])
    with pytest.raises(SchedulingError, match=match):
        replay(omp.graph, omp.computes, order)


def test_graph_longer_or_shorter_than_the_arena_raises(machine):
    alg = StrassenWinograd(machine, cutoff=32, grain=32)
    arena = alg.build_cached(128, 2).graph
    graph = TaskGraph.from_arena(arena)
    graph.add("extra", TaskCost())
    longer = graph.to_arena()
    order = list(range(len(longer)))
    with pytest.raises(SchedulingError, match="tasks but the simulated graph has"):
        alg.compute_product(128, 2, order, longer)


def test_order_is_checked_against_the_simulated_arena(machine):
    """Before any op runs, the order must be a linear extension of the
    simulated arena; the first task it runs too early is named."""
    alg = StrassenWinograd(machine, cutoff=32, grain=32)
    arena = alg.build_cached(128, 2).graph
    assert len(arena) > 5
    order = list(range(len(arena)))
    order[0], order[-1] = order[-1], order[0]
    match = "'post/128' before its dependency 'post/64'"
    with pytest.raises(SchedulingError, match=match):
        alg.compute_product(128, 2, order, arena)


def test_check_order_names_the_first_violation():
    arena = chain("abcd", []).graph
    check_order(arena, [0, 1, 2, 3])
    with pytest.raises(SchedulingError, match="'c' before its dependency 'b'"):
        check_order(arena, [0, 2, 3, 1])
    with pytest.raises(SchedulingError, match="outside 0..3"):
        check_order(arena, [0, 1, 2, 4])


def test_replay_numerics_verifies_the_arena_schedule(machine):
    """Stamp, run in the arena's schedule, verify — for every
    algorithm, at a size that pads."""
    for alg in (
        StrassenWinograd(machine, cutoff=32),
        StrassenWinograd(machine, cutoff=32, odd_strategy="peel"),
        CapsStrassen(machine, leaf_cutoff=32),
    ):
        arena = alg.build_cached(100, 2).graph
        schedule = Scheduler(machine, 2).run(arena)
        report = alg.check_numerics(100, 2, schedule, arena)
        assert report.ok, alg.name
