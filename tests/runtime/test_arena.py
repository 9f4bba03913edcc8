"""The columnar SoA/CSR task arena: round-trips through the object
oracle, vectorized metrics, validation, pickling, and the event
kernels reading arenas."""

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
from repro.testing.generators import gen_graph_case
from repro.testing.oracle import compare_schedules
from repro.testing.taskgraph import TaskGraph
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

    def test_successors_group_edges_in_stored_order(self):
        """Each task's dependents in stored edge order, once per edge:
        a stable sort of the edges by dependency, duplicate edges and
        the one-task and empty arenas included."""
        for arena in _path_cases():
            order = np.argsort(arena.dep_indices, kind="stable")
            owners = np.repeat(np.arange(len(arena)), arena.dep_counts)
            ptr, idx = arena.successors_csr()
            assert idx.dtype == np.int64
            assert idx.tolist() == owners[order].tolist(), arena.name
            assert np.array_equal(np.diff(ptr), np.bincount(
                arena.dep_indices, minlength=len(arena)
            )), arena.name

    def test_structural_diff_detects_cost_skew(self):
        g = _random_graph(3)
        a = g.to_arena()
        g.tasks[0].cost = TaskCost(flops=g.tasks[0].cost.flops + 1.0)
        assert g.to_arena().structural_diff(a) != []


# ---------------------------------------------------------------------------
# vectorized metrics vs the object graph's scalar sweeps


class TestMetrics:
    def _durations(self, machine, graph, arena):
        sched = Scheduler(machine, threads=1)
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
# the frontier pass: whole vectors against the scalar loops, bit for bit


def _seeded_dag(seed, layers, width, isolated=0.05, zero=0.2):
    """A layered DAG with random DRAM-only costs.

    Every non-isolated task past the first layer depends on one to three
    tasks of the layer before, drawn with replacement (so duplicate
    edges occur), plus now and then one of any earlier layer; isolated
    tasks have no edges.  A *zero* fraction of tasks cost nothing.
    """
    rng = np.random.default_rng(seed)
    n = layers * width
    isolated_mask = rng.random(n) < isolated
    bytes_dram = rng.uniform(1e3, 1e7, n)
    bytes_dram[rng.random(n) < zero] = 0.0
    counts = np.zeros(n, dtype=np.int64)
    segments = []
    for layer in range(1, layers):
        lo = layer * width
        prev = np.flatnonzero(~isolated_mask[lo - width : lo]) + lo - width
        if not len(prev):
            continue
        rows = np.flatnonzero(~isolated_mask[lo : lo + width]) + lo
        k = rng.integers(1, 4, len(rows))
        far = rng.random(len(rows)) < 0.1
        counts[rows] = k + far
        # Each row's segment: its k near deps, then its far dep if any.
        seg = np.empty(int(counts[rows].sum()), dtype=np.int64)
        ends = np.cumsum(counts[rows])
        near = np.ones(len(seg), dtype=bool)
        near[ends[far] - 1] = False
        seg[near] = rng.choice(prev, int(k.sum()))
        seg[~near] = rng.integers(0, lo, int(far.sum()))
        segments.append(seg)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    flat = np.concatenate(segments) if segments else np.zeros(0, dtype=np.int64)
    zeros = np.zeros(n)
    cols = {f: zeros for f in ("flops", "bytes_l1", "bytes_l2", "bytes_l3")}
    cols["efficiency"] = np.ones(n)
    cols["bytes_dram"] = bytes_dram
    return TaskArena(
        f"dag{seed}",
        ("t",),
        np.zeros(n, dtype=np.int32),
        cols,
        np.ones(n, dtype=bool),
        np.full(n, NO_CREATOR, dtype=np.int64),
        indptr,
        flat,
    )


def _one_task_arena():
    g = TaskGraph("one")
    g.add("t", TaskCost(bytes_dram=4096.0))
    return g.to_arena()


def _path_cases():
    cases = [_seeded_dag(seed, layers=4 + seed, width=3 + 2 * seed) for seed in range(12)]
    cases.append(_one_task_arena())
    cases.append(TaskGraph("empty").to_arena())
    return cases


class TestLongestPath:
    @staticmethod
    def _scheduler_and_durations(machine, arena):
        sched = Scheduler(machine, threads=1)
        durs = arena.uncontended_durations(
            sched._core_peak,
            sched._l1_bw,
            sched._l2_bw,
            machine.l3_bandwidth,
            machine.dram_bandwidth,
        )
        return sched, durs

    @staticmethod
    def _assert_paths_match(machine, arena):
        from repro.runtime.rankevents import RankEventProgram
        from repro.testing.netlowering import reference_finish_times

        sched, durs = TestLongestPath._scheduler_and_durations(machine, arena)
        graph = TaskGraph.from_arena(arena)
        scalar = durs.tolist()
        finish = arena.finish_times(durs)
        want = np.asarray(graph.finish_times(lambda t: scalar[t.tid]))
        assert finish.tobytes() == want.tobytes(), arena.name
        n = len(arena)
        events = RankEventProgram.from_columns(
            1,
            kind=np.zeros(n, dtype=np.int64),
            rank=np.zeros(n, dtype=np.int64),
            peer=np.full(n, -1, dtype=np.int64),
            nbytes=np.zeros(n),
            durations=durs,
            dep_indptr=arena.dep_indptr,
            dep_indices=arena.dep_indices,
        )
        assert finish.tobytes() == reference_finish_times(events).tobytes()
        assert finish.tobytes() == events.finish_times().tobytes()
        prio = arena.critical_priorities(durs)
        want = np.asarray(sched._reference_priorities(arena), dtype=np.float64)
        assert prio.tobytes() == want.tobytes(), arena.name

    def test_seeded_dags_bit_identical(self, machine):
        cases = _path_cases()
        assert any(
            len(np.unique(a.dep_indices)) < len(a.dep_indices) for a in cases
        ), "no case has a duplicate dependency edge"
        for arena in cases:
            self._assert_paths_match(machine, arena)

    def test_cases_cover_the_edge_shapes(self, machine):
        cases = _path_cases()
        assert [len(a) for a in cases[-2:]] == [1, 0]
        dag = cases[-3]
        sptr, _ = dag.successors_csr()
        lonely = (dag.dep_counts == 0) & (sptr[1:] == sptr[:-1])
        assert lonely.any(), "no isolated task"
        _, durs = self._scheduler_and_durations(machine, dag)
        assert (durs == 0.0).any() and (durs > 0.0).any()

    def test_wide_and_deep_bit_identical(self, machine):
        arena = _seeded_dag(99, layers=300, width=500)
        self._assert_paths_match(machine, arena)
        # Every layer hangs off the one before: the pass runs 300 rounds.
        assert arena.finish_times(np.ones(len(arena))).max() == 300.0

    def test_zero_durations_finish_at_zero(self):
        arena = _seeded_dag(3, layers=6, width=4)
        zeros = np.zeros(len(arena))
        assert not arena.finish_times(zeros).any()
        assert not arena.critical_priorities(zeros).any()

    def test_malformed_arena_still_raises(self):
        arena = _graph_with_deps().to_arena()
        bad = arena.dep_indices.copy()
        bad[0] = len(arena) - 1
        durs = np.ones(len(arena))
        with pytest.raises(SchedulingError, match="unknown/future"):
            _rebuild(arena, dep_indices=bad).finish_times(durs)
        with pytest.raises(SchedulingError, match="unknown/future"):
            _rebuild(arena, dep_indices=bad).critical_priorities(durs)
        sentinel = arena.dep_indices.copy()
        sentinel[0] = EXT_DEP
        with pytest.raises(SchedulingError, match="sentinel"):
            _rebuild(arena, dep_indices=sentinel).finish_times(durs)


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
        Scheduler(case.machine, threads=1, engine="fast").run(arena)
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
            case.machine, case.threads, case.policy
        ).run(arena)
        s2 = Scheduler(
            case.machine, case.threads, case.policy
        ).run(clone)
        assert compare_schedules(s1, s2) == []


# ---------------------------------------------------------------------------
# scheduler bridge


class TestSchedulerBridge:
    def test_fast_engine_consumes_arena_natively(self):
        for seed in range(15):
            case = gen_graph_case(seed, max_tasks=60)
            schedules = [
                Scheduler(
                    case.machine, case.threads, case.policy, engine=engine
                ).run(case.arena)
                for engine in ("reference", "fast")
            ]
            assert compare_schedules(*schedules) == [], seed

    def test_reference_engine_reads_arena_columns(self, monkeypatch):
        """The scalar oracle schedules the arena itself: no object graph
        is built, and a pickled copy of the columns schedules the same."""

        def inflate(arena):
            raise AssertionError("the reference engine inflated the arena")

        monkeypatch.setattr(TaskGraph, "from_arena", staticmethod(inflate))
        case = gen_graph_case(6, max_tasks=40)
        ref = Scheduler(
            case.machine, case.threads, case.policy, engine="reference",
        )
        clone = pickle.loads(pickle.dumps(case.arena))
        assert compare_schedules(ref.run(case.arena), ref.run(clone)) == []

    def test_execute_on_arena_raises(self, machine):
        """An arena carries no closures: replaying one without its
        builder's closures raises instead of silently computing
        nothing."""
        from repro.runtime.replay import replay

        g = TaskGraph("g")
        g.add("t", TaskCost(flops=1.0))
        arena = g.to_arena()
        for engine in ("fast", "reference"):
            schedule = Scheduler(machine, 1, engine=engine).run(arena)
            with pytest.raises(SchedulingError, match="0 closures"):
                replay(arena, [], schedule.start_order())


# ---------------------------------------------------------------------------
# TaskGraph metric memoization (regression: add() must invalidate)


class TestMetricsMemo:
    def test_memo_hits_across_fresh_bound_methods(self, machine):
        g = TaskGraph("memo")
        g.add("a", TaskCost(flops=1e6, efficiency=1.0))
        sched = Scheduler(machine, threads=1)
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
