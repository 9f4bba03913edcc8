"""OpenMP-like arena builder."""

import pytest

from repro.runtime.cost import TaskCost
from repro.runtime.openmp import OpenMP, omp_num_threads
from repro.util.errors import ConfigurationError, SchedulingError


def _tasks(omp, prefix):
    """Tids of *omp*'s tasks whose names start with *prefix*."""
    return [t for t, name in enumerate(omp.graph.names_list()) if name.startswith(prefix)]


def test_omp_num_threads_env():
    assert omp_num_threads(default=2, environ={}) == 2
    assert omp_num_threads(environ={"OMP_NUM_THREADS": "3"}) == 3
    with pytest.raises(ConfigurationError):
        omp_num_threads(environ={"OMP_NUM_THREADS": "abc"})
    with pytest.raises(Exception):
        omp_num_threads(environ={"OMP_NUM_THREADS": "0"})


def test_task_and_taskwait():
    omp = OpenMP("g", 4)
    a = omp.task("a", TaskCost(flops=1))
    b = omp.task("b", TaskCost(flops=1))
    j = omp.taskwait([a, b])
    assert (a, b, j) == (0, 1, 2)
    assert omp.graph.cost(j).is_zero
    assert set(omp.graph.deps_list()[j]) == {a, b}


def test_parallel_for_chunk_count_defaults_to_threads():
    omp = OpenMP("g", 4)
    join = omp.parallel_for("loop", TaskCost(flops=100))
    chunks = _tasks(omp, "loop[")
    assert len(chunks) == 4
    assert omp.graph.deps_list()[join] == tuple(chunks)


def test_parallel_for_splits_cost_evenly():
    omp = OpenMP("g", 4)
    omp.parallel_for("loop", TaskCost(flops=100, bytes_dram=40))
    chunks = _tasks(omp, "loop[")
    assert all(omp.graph.flops[t] == 25 for t in chunks)
    assert all(omp.graph.bytes_dram[t] == 10 for t in chunks)


def test_parallel_for_total_work_preserved():
    omp = OpenMP("g", 3)
    omp.parallel_for("loop", TaskCost(flops=99))
    total = sum(omp.graph.flops.tolist())
    assert total == pytest.approx(99)


def test_parallel_for_without_join_returns_chunks():
    omp = OpenMP("g", 2)
    chunks = omp.parallel_for("loop", TaskCost(flops=10), join=False)
    assert isinstance(chunks, list) and len(chunks) == 2


def test_parallel_for_computes_length_checked():
    omp = OpenMP("g", 2)
    with pytest.raises(ConfigurationError):
        omp.parallel_for("loop", TaskCost(flops=10), chunk_computes=[None])


def test_parallel_for_chunk_computes_attached():
    hits = []
    omp = OpenMP("g", 2)
    omp.parallel_for(
        "loop",
        TaskCost(flops=10),
        chunk_computes=[lambda: hits.append(0), lambda: hits.append(1)],
    )
    assert len(omp.computes) == len(omp.graph) == 3  # two chunks + join
    for compute in omp.computes:
        if compute:
            compute()
    assert sorted(hits) == [0, 1]


def test_sections():
    omp = OpenMP("g", 2)
    join = omp.sections("sec", [TaskCost(flops=1), TaskCost(flops=2)])
    secs = _tasks(omp, "sec/sec")
    assert len(secs) == 2
    assert omp.graph.deps_list()[join] == tuple(secs)


def test_sections_computes_mismatch():
    omp = OpenMP("g", 2)
    with pytest.raises(ConfigurationError):
        omp.sections("sec", [TaskCost(flops=1)], computes=[None, None])


def test_barrier_joins_all_sinks():
    omp = OpenMP("g", 2)
    a = omp.task("a")
    b = omp.task("b")
    bar = omp.barrier()
    assert set(omp.graph.deps_list()[bar]) == {a, b}


def test_single():
    omp = OpenMP("g", 4)
    t = omp.single("only", TaskCost(flops=5))
    assert omp.graph.cost(t).flops == 5


def test_dependencies_chain_through_regions(machine):
    from repro.runtime.scheduler import Scheduler

    omp = OpenMP("g", 2)
    first = omp.parallel_for("phase1", TaskCost(flops=2e9))
    omp.parallel_for("phase2", TaskCost(flops=2e9), deps=[first])
    sched = Scheduler(machine, threads=2).run(omp.graph)
    p1_end = max(r.end for r in sched.records if r.name.startswith("phase1["))
    p2_start = min(r.start for r in sched.records if r.name.startswith("phase2["))
    assert p2_start >= p1_end - 1e-12


def test_unknown_or_future_dependency_rejected():
    omp = OpenMP("g")
    omp.task("a")
    for bad in (1, 5, -1):
        with pytest.raises(SchedulingError, match="unknown/future task id"):
            omp.task("x", deps=[0, bad])
    assert len(omp.graph) == 1  # a rejected task appends nothing
    bar = omp.barrier()
    assert omp.graph.deps_list()[bar] == (0,)  # 0 is still a sink


def test_dependency_on_tid_zero_survives():
    """Handles are ints, and tid 0 is falsy: a dependency on it must
    still reach the arena."""
    omp = OpenMP("g")
    first = omp.task("first", TaskCost(flops=1))
    assert first == 0
    second = omp.task("second", TaskCost(flops=1), deps=[first])
    omp.taskwait([first, second])
    assert omp.graph.deps_list() == [(), (0,), (0, 1)]


def test_barrier_joins_exactly_the_current_sinks():
    omp = OpenMP("g", 2)
    a = omp.task("a")
    b = omp.task("b", deps=[a])
    c = omp.task("c")
    first = omp.barrier()
    assert omp.graph.deps_list()[first] == (b, c)
    d = omp.task("d", deps=[a])
    second = omp.barrier()
    assert omp.graph.deps_list()[second] == (first, d)


def test_graph_tracks_later_tasks():
    omp = OpenMP("g")
    omp.task("a", TaskCost(flops=1))
    first = omp.graph
    assert omp.graph is first  # cached while nothing is appended
    omp.task("b", TaskCost(flops=2), deps=[0], untied=False, created_by=0)
    grown = omp.graph
    assert len(first) == 1 and len(grown) == 2
    assert grown.names_list() == ["a", "b"]
    assert grown.untied.tolist() == [True, False]
    assert grown.created_by_list() == [None, 0]


def test_lu_sequential_phase_is_a_single_chain(machine):
    """``BlockLU.phase_measurements`` chains every panel factorization
    (the first one is tid 0) into one sequential graph."""
    from repro.algorithms.mixed import BlockLU
    from repro.sim import Engine

    graphs = {}

    class Recording(Engine):
        def run(self, graph, threads, policy="fifo", label=None):
            graphs[graph.name] = graph
            return super().run(graph, threads, policy, label)

    BlockLU(machine, block=32).phase_measurements(128, 3, engine=Recording(machine))
    seq = graphs["lu-sequential"]
    assert seq.names_list() == [f"seq-panel/{k}" for k in range(4)]
    assert seq.deps_list() == [(), (0,), (1,), (2,)]
    par = graphs["lu-parallel"]
    assert not any(name.startswith("seq-") for name in par.names_list())
