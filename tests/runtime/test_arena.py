"""The columnar SoA/CSR task arena: round-trips, vectorized metrics,
validation, pickling, and the scheduler bridge."""

import pickle

import numpy as np
import pytest

from repro.runtime.arena import (
    EXT_CREATOR,
    EXT_DEP,
    NO_CREATOR,
    NameInterner,
    TaskArena,
    TemplateBuilder,
)
from repro.runtime.cost import ZERO_COST, TaskCost
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import TaskGraph
from repro.testing.generators import gen_graph_case
from repro.testing.oracle import compare_schedules
from repro.util.errors import SchedulingError, ValidationError


def _random_graph(seed):
    return gen_graph_case(seed, max_tasks=60).graph


# ---------------------------------------------------------------------------
# round-trips


class TestRoundTrip:
    def test_graph_arena_graph_is_bit_identical(self):
        for seed in range(25):
            g = _random_graph(seed)
            arena = g.to_arena()
            back = TaskGraph.from_arena(arena)
            assert arena.structural_diff(back.to_arena()) == [], seed

    def test_round_trip_preserves_every_field(self):
        g = _random_graph(7)
        back = TaskGraph.from_arena(g.to_arena())
        assert len(back) == len(g)
        assert back.name == g.name
        for a, b in zip(g.tasks, back.tasks):
            assert (a.tid, a.name, a.deps, a.untied, a.created_by) == (
                b.tid,
                b.name,
                b.deps,
                b.untied,
                b.created_by,
            )
            assert a.cost == b.cost

    def test_round_trip_drops_compute_closures(self):
        g = TaskGraph("with-compute")
        g.add("t0", TaskCost(flops=1.0), compute=lambda: None)
        back = TaskGraph.from_arena(g.to_arena())
        assert back.tasks[0].compute is None

    def test_successors_match_object_append_order(self):
        for seed in range(10):
            g = _random_graph(seed)
            arena = g.to_arena()
            assert arena.successors_lists() == g._successors, seed

    def test_structural_diff_detects_cost_skew(self):
        g = _random_graph(3)
        a = g.to_arena()
        g.tasks[0].cost = TaskCost(flops=g.tasks[0].cost.flops + 1.0)
        assert g.to_arena().structural_diff(a) != []


# ---------------------------------------------------------------------------
# vectorized metrics vs the object graph's scalar sweeps


class TestMetrics:
    def _durations(self, machine, graph, arena):
        sched = Scheduler(machine, threads=1, execute=False)
        durs = arena.uncontended_durations(
            sched._core_peak,
            sched._l1_bw,
            sched._l2_bw,
            machine.l3_bandwidth,
            machine.dram_bandwidth,
        )
        return sched.uncontended_duration, durs

    def test_critical_path_exact(self):
        for seed in range(20):
            case = gen_graph_case(seed, max_tasks=60)
            arena = case.graph.to_arena()
            fn, durs = self._durations(case.machine, case.graph, arena)
            assert case.graph.critical_path_seconds(fn) == (
                arena.critical_path_seconds(durs)
            ), seed

    def test_total_work_close(self):
        # np.sum pairs additions differently than Python sum: relative
        # tolerance, not bit equality, is the contract here.
        for seed in range(20):
            case = gen_graph_case(seed, max_tasks=60)
            arena = case.graph.to_arena()
            fn, durs = self._durations(case.machine, case.graph, arena)
            a = case.graph.total_work_seconds(fn)
            b = arena.total_work_seconds(durs)
            assert a == pytest.approx(b, rel=1e-12), seed

    def test_average_parallelism_consistent(self):
        case = gen_graph_case(11, max_tasks=60)
        arena = case.graph.to_arena()
        fn, durs = self._durations(case.machine, case.graph, arena)
        assert case.graph.average_parallelism(fn) == pytest.approx(
            arena.average_parallelism(durs), rel=1e-12
        )

    def test_uncontended_durations_match_scalar(self):
        case = gen_graph_case(5, max_tasks=60)
        arena = case.graph.to_arena()
        fn, durs = self._durations(case.machine, case.graph, arena)
        for t in case.graph.tasks:
            assert durs[t.tid] == fn(t), t


# ---------------------------------------------------------------------------
# validation


def _rebuild(arena, dep_indices=None, name_ids=None):
    from repro.runtime.arena import _COST_FIELDS

    return TaskArena(
        arena.name,
        arena.names,
        arena.name_ids if name_ids is None else name_ids,
        {f: getattr(arena, f) for f in _COST_FIELDS},
        arena.untied,
        arena.created_by,
        arena.dep_indptr,
        arena.dep_indices if dep_indices is None else dep_indices,
    )


def _graph_with_deps():
    g = TaskGraph("deps")
    a = g.add("a", TaskCost(flops=1.0))
    b = g.add("b", TaskCost(flops=1.0), deps=[a])
    g.add("c", TaskCost(flops=1.0), deps=[a, b])
    return g


class TestValidate:
    def test_unresolved_sentinel_rejected(self):
        arena = _graph_with_deps().to_arena()
        bad = arena.dep_indices.copy()
        bad[0] = EXT_DEP
        with pytest.raises(SchedulingError, match="sentinel"):
            _rebuild(arena, dep_indices=bad).validate()

    def test_forward_dep_rejected(self):
        arena = _graph_with_deps().to_arena()
        bad = arena.dep_indices.copy()
        bad[0] = len(arena) - 1  # task 1 now "depends" on the last task
        with pytest.raises(SchedulingError, match="unknown/future"):
            _rebuild(arena, dep_indices=bad).validate()

    def test_name_id_range_rejected(self):
        arena = _graph_with_deps().to_arena()
        bad = arena.name_ids.copy()
        bad[0] = len(arena.names)  # one past the interned table
        with pytest.raises(ValidationError):
            _rebuild(arena, name_ids=bad).validate()

    def test_template_builder_rejects_unresolved_splice(self):
        tb = TemplateBuilder(NameInterner())
        tb.emit("dangling", ZERO_COST, (EXT_DEP,), created_by=EXT_CREATOR)
        with pytest.raises(ValidationError):
            tb.to_arena("bad")


# ---------------------------------------------------------------------------
# pickling


class TestPickle:
    def test_round_trip_and_cache_drop(self):
        case = gen_graph_case(4, max_tasks=60)
        arena = case.graph.to_arena()
        # Warm the lazy caches and a fastpath plan.
        arena.names_list()
        arena.successors_lists()
        Scheduler(case.machine, threads=1, execute=False, engine="fast").run(arena)
        state = arena.__getstate__()
        assert not any(k.startswith("_c_") for k in state)
        assert "_plan_bundle" not in state
        clone = pickle.loads(pickle.dumps(arena))
        assert arena.structural_diff(clone) == []

    def test_pickled_arena_schedules_identically(self):
        case = gen_graph_case(9, max_tasks=60)
        arena = case.graph.to_arena()
        clone = pickle.loads(pickle.dumps(arena))
        s1 = Scheduler(
            case.machine, case.threads, case.policy, execute=False
        ).run(arena)
        s2 = Scheduler(
            case.machine, case.threads, case.policy, execute=False
        ).run(clone)
        assert compare_schedules(s1, s2) == []


# ---------------------------------------------------------------------------
# scheduler bridge


class TestSchedulerBridge:
    def test_fast_engine_consumes_arena_natively(self):
        for seed in range(15):
            case = gen_graph_case(seed, max_tasks=60)
            arena = case.graph.to_arena()
            fast_arena = Scheduler(
                case.machine,
                case.threads,
                case.policy,
                execute=False,
                engine="fast",
            ).run(arena)
            fast_obj = Scheduler(
                case.machine,
                case.threads,
                case.policy,
                execute=False,
                engine="fast",
            ).run(case.graph)
            assert compare_schedules(fast_arena, fast_obj) == [], seed

    def test_reference_engine_inflates_arena(self):
        case = gen_graph_case(6, max_tasks=40)
        arena = case.graph.to_arena()
        ref_arena = Scheduler(
            case.machine, case.threads, case.policy, execute=False,
            engine="reference",
        ).run(arena)
        ref_obj = Scheduler(
            case.machine, case.threads, case.policy, execute=False,
            engine="reference",
        ).run(case.graph)
        assert compare_schedules(ref_arena, ref_obj) == []

    def test_execute_on_arena_raises(self, machine):
        g = TaskGraph("g")
        g.add("t", TaskCost(flops=1.0))
        arena = g.to_arena()
        for engine in ("fast", "reference"):
            with pytest.raises(SchedulingError, match="cost-only"):
                Scheduler(machine, 1, execute=True, engine=engine).run(arena)


# ---------------------------------------------------------------------------
# TaskGraph metric memoization (regression: add() must invalidate)


class TestMetricsMemo:
    def test_memo_hits_across_fresh_bound_methods(self, machine):
        g = TaskGraph("memo")
        g.add("a", TaskCost(flops=1e6, efficiency=1.0))
        sched = Scheduler(machine, threads=1, execute=False)
        first = g.critical_path_seconds(sched.uncontended_duration)
        calls = []

        class Probe:
            def __call__(self, task):
                calls.append(task.tid)
                return 1.0

        # Bound methods are recreated per access; the memo keys on the
        # underlying function + owner, so this second query must hit.
        assert g.critical_path_seconds(sched.uncontended_duration) == first
        probe = Probe()
        assert g.total_work_seconds(probe) == 1.0
        assert g.total_work_seconds(probe) == 1.0
        assert calls == [0]  # second query served from the memo

    def test_add_invalidates(self, machine):
        g = TaskGraph("memo")
        a = g.add("a", TaskCost(flops=1e6, efficiency=1.0))
        fn = lambda task: 2.0  # noqa: E731
        assert g.critical_path_seconds(fn) == 2.0
        assert g.total_work_seconds(fn) == 2.0
        g.add("b", TaskCost(flops=1e6, efficiency=1.0), deps=[a])
        assert g.critical_path_seconds(fn) == 4.0
        assert g.total_work_seconds(fn) == 4.0

    def test_distinct_functions_get_distinct_entries(self):
        g = TaskGraph("memo")
        g.add("a", TaskCost(flops=1e6, efficiency=1.0))
        assert g.total_work_seconds(lambda t: 1.0) == 1.0
        assert g.total_work_seconds(lambda t: 3.0) == 3.0
