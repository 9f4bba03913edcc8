"""Differential identity: the fast event kernel vs the reference loop.

``reference`` is the scalar spec of the event sweep and the fast kernel
(:mod:`repro.runtime.fastpath`) an optimised transcription of it, so
the two must produce the same schedule columns bit for bit: task
records (placement, order, start/end times), activity interval rows,
busy rows and statistics
(:func:`repro.testing.oracle.compare_schedules`).
"""

import random

import pytest

from repro.machine import generic_smp
from repro.machine.specs import dual_socket_haswell
from repro.runtime.cost import TaskCost
from repro.runtime.scheduler import Scheduler
from repro.runtime.arena import TaskArena
from repro.runtime.openmp import OpenMP
from repro.testing.oracle import compare_schedules

POLICIES = ("fifo", "lifo", "critical", "steal")


def assert_schedules_match(ref, fast):
    """Assert the two schedules are identical, bit for bit."""
    assert compare_schedules(ref, fast) == []


# ---------------------------------------------------------------------------
# workload generators


def wide_region(n: int = 150) -> OpenMP:
    """Independent tasks with randomized demands in every dimension."""
    omp = OpenMP("wide")
    rng = random.Random(7)
    for i in range(n):
        omp.task(
            f"t{i}",
            TaskCost(
                flops=rng.uniform(1e5, 1e7),
                bytes_l1=rng.uniform(1e3, 1e5),
                bytes_l2=rng.uniform(1e3, 1e5),
                bytes_l3=rng.uniform(1e2, 1e4),
                bytes_dram=rng.uniform(1e2, 1e6),
            ),
        )
    return omp


def wide_graph(n: int = 150) -> TaskArena:
    return wide_region(n).graph


def random_dag(seed: int, n: int = 250) -> TaskArena:
    """A randomized DAG exercising every scheduler feature: mixed
    dependencies, zero-cost joins, single-dimension demands, tied
    tasks, and creator affinity."""
    rng = random.Random(seed)
    omp = OpenMP(f"rand{seed}")
    for i in range(n):
        deps = sorted({rng.randrange(i) for _ in range(rng.randrange(0, 4))}) if i else []
        roll = rng.random()
        if roll < 0.10:
            cost = TaskCost()  # zero-cost join/barrier
        elif roll < 0.20:
            # Single-dimension demand (exercises trivial alive counts).
            dim = rng.choice(
                ["flops", "bytes_l1", "bytes_l2", "bytes_l3", "bytes_dram"]
            )
            cost = TaskCost(**{dim: rng.uniform(1e2, 1e6)})
        else:
            cost = TaskCost(
                flops=rng.uniform(0, 1e6),
                bytes_l1=rng.uniform(0, 1e4),
                bytes_l2=rng.uniform(0, 1e4),
                bytes_l3=rng.uniform(0, 1e4),
                bytes_dram=rng.uniform(0, 1e5),
            )
        created_by = rng.randrange(i) if i and rng.random() < 0.3 else None
        omp.task(
            f"t{i}",
            cost,
            deps=deps,
            untied=rng.random() < 0.5,
            created_by=created_by,
        )
    return omp.graph


def strassen_graph(machine) -> TaskArena:
    """A real algorithm lowering (nontrivial structure + cost mix)."""
    from repro.algorithms import StrassenWinograd

    return StrassenWinograd(machine).build_arena(256, 4).graph


# ---------------------------------------------------------------------------
# tests


def _run_both(machine, graph, policy, threads):
    ref = Scheduler(machine, threads, policy, engine="reference").run(graph)
    fast = Scheduler(machine, threads, policy, engine="fast").run(graph)
    return ref, fast


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_differential_wide(machine, policy, threads):
    ref, fast = _run_both(machine, wide_graph(), policy, threads)
    assert_schedules_match(ref, fast)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_differential_random_dag(machine, policy, seed):
    graph = random_dag(seed)
    for threads in (1, 2, 3, 4):
        ref, fast = _run_both(machine, graph, policy, threads)
        assert_schedules_match(ref, fast)


@pytest.mark.parametrize("policy", POLICIES)
def test_differential_dual_socket(policy):
    """Dual-socket machine: shared-dim repricing crosses sockets
    (exercises the multi-socket refresh path)."""
    machine = dual_socket_haswell()
    graph = random_dag(11, n=200)
    for threads in (2, 4, 8):
        ref, fast = _run_both(machine, graph, policy, threads)
        assert_schedules_match(ref, fast)


@pytest.mark.parametrize("policy", POLICIES)
def test_differential_many_cores_numpy_path(policy):
    """24 cores (120 seat entries), a larger random DAG: the identity
    holds far past the paper's 4 cores.  (The name predates the single
    list-based event step.)"""
    machine = generic_smp(cores=24)
    graph = random_dag(5, n=300)
    ref, fast = _run_both(machine, graph, policy, 24)
    assert_schedules_match(ref, fast)


@pytest.mark.parametrize("policy", POLICIES)
def test_differential_strassen(machine, policy):
    graph = strassen_graph(machine)
    ref, fast = _run_both(machine, graph, policy, 4)
    assert_schedules_match(ref, fast)


def test_differential_zero_cost_only(machine):
    """Pure join graphs (every task zero-cost) finish at t=0 on both
    engines with identical records."""
    omp = OpenMP("zeros")
    for i in range(20):
        deps = [i - 1] if i else []
        omp.task(f"z{i}", TaskCost(), deps=deps)
    for policy in POLICIES:
        ref, fast = _run_both(machine, omp.graph, policy, 2)
        assert_schedules_match(ref, fast)
        assert fast.makespan == 0.0


def test_long_zero_cost_chains_run_on_every_kernel(machine):
    """3,000 zero-cost joins behind one costed task, and 3,000 behind a
    zero-cost source: every kernel retires each chain at once, without
    recursing, and all three agree bit for bit."""
    from repro.runtime.compiledpath import compiled_available

    omp = OpenMP("joins")
    prev = omp.task("work", TaskCost(flops=1e6))
    for i in range(3000):
        prev = omp.task(f"join{i}", TaskCost(), deps=[prev])
    prev = omp.task("source", TaskCost())
    for i in range(3000):
        prev = omp.task(f"seed_join{i}", TaskCost(), deps=[prev])
    kernels = ["fast"] + (["compiled"] if compiled_available()[0] else [])
    for policy in POLICIES:
        ref = Scheduler(machine, 2, policy, engine="reference").run(omp.graph)
        assert len(ref.records) == 6002
        assert ref.records[-1].end == ref.makespan > 0.0
        for engine in kernels:
            got = Scheduler(machine, 2, policy, engine=engine).run(omp.graph)
            assert compare_schedules(ref, got) == [], (policy, engine)


# The fast kernel once kept its event store as a Python list below 96
# seat entries and as a numpy array above.  One list-based event step
# now serves every core count; these tests keep watch on both sides of
# where that threshold sat.  ``store`` names the side: "list" is the
# paper's 4-core machine (20 seat entries), "numpy" a 24-core one (120).
_STORE_SIDES = {"list": None, "numpy": 24}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("store", ["list", "numpy"])
def test_event_store_pinned_both_sides_of_threshold(machine, policy, store):
    """Fast agrees with the reference on either side of the former
    list/numpy threshold."""
    from repro.runtime import fastpath

    assert not hasattr(fastpath, "_NUMPY_THRESHOLD")
    cores = _STORE_SIDES[store]
    m = machine if cores is None else generic_smp(cores=cores)
    graph = random_dag(17, n=150)
    ref, fast = _run_both(m, graph, policy, m.cores)
    assert_schedules_match(ref, fast)


@pytest.mark.parametrize("policy", ["fifo", "steal"])
def test_event_store_crossover_is_invisible(policy):
    """Straddle the former threshold: 19 threads (95 entries) and 20
    threads (100 entries) both match the reference, so no schedule can
    tell which side of it a machine sits on."""
    graph = random_dag(23, n=200)
    for cores in (19, 20):  # 95 / 100 seat entries
        m = generic_smp(cores=cores)
        ref, fast = _run_both(m, graph, policy, cores)
        assert_schedules_match(ref, fast)


def test_graph_plan_cache_reused_and_extended(machine):
    """A region's plan lives on its arena: it survives repeat runs, and
    the arena of the region grown by a later task gets a plan covering
    that task."""
    omp = wide_region(30)
    sched = Scheduler(machine, 2, engine="fast")
    arena = omp.graph
    sched.run(arena)
    gp = arena._plan_bundle.seat_plan
    assert len(gp.plans) == 30
    sched.run(omp.graph)
    assert omp.graph is arena and arena._plan_bundle.seat_plan is gp  # reused

    omp.task("late", TaskCost(flops=1e6), deps=[0])
    ref = Scheduler(machine, 2, engine="reference").run(omp.graph)
    fast = sched.run(omp.graph)
    assert len(omp.graph._plan_bundle.seat_plan.plans) == 31  # extended
    assert_schedules_match(ref, fast)
