"""Task graphs: construction, validation, structural metrics."""

import pytest

from repro.runtime.cost import TaskCost
from repro.runtime.task import TaskGraph
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


class TestSerialization:
    def _graph(self):
        g = TaskGraph("demo")
        a = g.add("a", TaskCost(flops=10, efficiency=0.5, bytes_dram=100))
        b = g.add("b", TaskCost(flops=20), deps=[a], untied=False, created_by=a)
        g.join("j", [b])
        return g

    def test_roundtrip_structure(self):
        g = self._graph()
        g2 = TaskGraph.from_dict(g.to_dict())
        assert len(g2) == len(g)
        assert g2.name == "demo"
        for t1, t2 in zip(g, g2):
            assert t1.name == t2.name
            assert t1.deps == t2.deps
            assert t1.untied == t2.untied
            assert t1.created_by == t2.created_by
            assert t1.cost == t2.cost

    def test_roundtrip_drops_closures(self):
        g = TaskGraph()
        g.add("x", TaskCost(flops=1), compute=lambda: None)
        g2 = TaskGraph.from_dict(g.to_dict())
        assert g2.task(0).compute is None

    def test_roundtrip_schedules_identically(self, machine):
        from repro.runtime.scheduler import Scheduler

        g = self._graph()
        g2 = TaskGraph.from_dict(g.to_dict())
        s1 = Scheduler(machine, 2).run(g)
        s2 = Scheduler(machine, 2).run(g2)
        assert s1.makespan == s2.makespan

    def test_json_serializable(self):
        import json

        json.dumps(self._graph().to_dict())


class TestDot:
    def test_dot_contains_nodes_and_edges(self):
        g = TaskGraph("dotted")
        a = g.add("work", TaskCost(flops=5))
        g.join("sync", [a])
        dot = g.to_dot()
        assert dot.startswith('digraph "dotted"')
        assert "t0 -> t1;" in dot
        assert "diamond" in dot  # zero-cost join shape
        assert "ellipse" in dot

    def test_dot_size_guard(self):
        g = TaskGraph()
        for i in range(12):
            g.add(f"t{i}", TaskCost(flops=1))
        with pytest.raises(ValidationError):
            g.to_dot(max_tasks=10)
