"""The object task graph (the arena's oracle twin): construction,
validation, structural metrics."""

import pytest

from repro.runtime.cost import TaskCost
from repro.testing.taskgraph import TaskGraph
from repro.util.errors import SchedulingError, ValidationError


def chain(n=3):
    g = TaskGraph("chain")
    prev = None
    for i in range(n):
        prev = g.add(f"t{i}", TaskCost(flops=10), deps=[prev] if prev else [])
    return g


def diamond():
    g = TaskGraph("diamond")
    a = g.add("a", TaskCost(flops=1))
    b = g.add("b", TaskCost(flops=2), deps=[a])
    c = g.add("c", TaskCost(flops=3), deps=[a])
    d = g.add("d", TaskCost(flops=4), deps=[b, c])
    return g, (a, b, c, d)


def test_ids_are_dense_creation_order():
    g = chain(4)
    assert [t.tid for t in g] == [0, 1, 2, 3]


def test_forward_dependency_rejected():
    g = TaskGraph()
    with pytest.raises(SchedulingError):
        g.add("x", deps=[0])  # self/future reference


def test_deps_accept_task_objects():
    g = TaskGraph()
    a = g.add("a")
    b = g.add("b", deps=[a])
    assert b.deps == (a.tid,)


def test_successors_and_sources_sinks():
    g, (a, b, c, d) = diamond()
    assert set(g.successors(a.tid)) == {b.tid, c.tid}
    assert g.sources() == [a]
    assert g.sinks() == [d]


def test_join():
    g, (_, b, c, _) = diamond()
    j = g.join("j", [b, c])
    assert j.cost.is_zero
    assert set(j.deps) == {b.tid, c.tid}


def test_validate_ok():
    g, _ = diamond()
    g.validate()  # must not raise


def test_topological_order_respects_deps():
    g, _ = diamond()
    order = [t.tid for t in g.topological_order()]
    for t in g:
        for d in t.deps:
            assert order.index(d) < order.index(t.tid)


def test_total_cost():
    g, _ = diamond()
    assert g.total_cost().flops == 10


def test_critical_path_diamond():
    g, _ = diamond()
    dur = lambda t: float(t.cost.flops)
    # longest chain: a(1) -> c(3) -> d(4) = 8
    assert g.critical_path_seconds(dur) == pytest.approx(8.0)
    assert g.total_work_seconds(dur) == pytest.approx(10.0)
    assert g.average_parallelism(dur) == pytest.approx(10.0 / 8.0)


def test_critical_path_chain_equals_total():
    g = chain(5)
    dur = lambda t: 1.0
    assert g.critical_path_seconds(dur) == pytest.approx(5.0)
    assert g.average_parallelism(dur) == pytest.approx(1.0)


def test_task_lookup():
    g = chain(2)
    assert g.task(1).name == "t1"
    with pytest.raises(ValidationError):
        g.task(99)


def test_counts_by_prefix():
    g = TaskGraph()
    g.add("pre/128")
    g.add("mul/64")
    g.add("mul/64x")
    assert g.counts_by_prefix() == {"pre": 1, "mul": 2}


def test_empty_graph_metrics():
    g = TaskGraph()
    assert g.critical_path_seconds(lambda t: 1.0) == 0.0
    assert len(g) == 0
