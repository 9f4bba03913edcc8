"""The arena's longest-path passes: the compiled forward/reverse pass in
task-id order against the numpy frontier and the per-object loops, bit
for bit, and the degraded (no-toolchain) path counted and traced."""

import numpy as np
import pytest

from repro.distributed import ClusterSpec, NetworkConfig
from repro.distributed.netsim import NetworkSweep, build_events
from repro.runtime import arena as arena_mod
from repro.runtime import jit
from repro.runtime.arena import (
    EXT_DEP,
    NO_CREATOR,
    TaskArena,
    _longest_path,
    longest_path_pass,
)
from repro.runtime.rankevents import RankEventProgram
from repro.runtime.scheduler import Scheduler
from repro.testing.generators import gen_graph_case, gen_network_case
from repro.testing.netlowering import reference_finish_times
from repro.util.errors import SchedulingError, ValidationError

requires_cc = pytest.mark.skipif(
    not jit.compiled_available()[0], reason="no C toolchain"
)


def _arena(indptr, indices, name="dag"):
    n = len(indptr) - 1
    zeros = np.zeros(n)
    cols = {f: zeros for f in ("flops", "bytes_l1", "bytes_l2", "bytes_l3", "bytes_dram")}
    cols["efficiency"] = np.ones(n)
    return TaskArena(
        name,
        ("t",),
        np.zeros(n, dtype=np.int32),
        cols,
        np.ones(n, dtype=bool),
        np.full(n, NO_CREATOR, dtype=np.int64),
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int64),
    )


def _events(indptr, indices, durations):
    n = len(indptr) - 1
    return RankEventProgram.from_columns(
        1,
        kind=np.zeros(n, dtype=np.int64),
        rank=np.zeros(n, dtype=np.int64),
        peer=np.full(n, -1, dtype=np.int64),
        nbytes=np.zeros(n),
        durations=np.asarray(durations, dtype=np.float64),
        dep_indptr=indptr,
        dep_indices=indices,
    )


def _object_passes(arena, durations):
    """Finish times and priorities from the per-object event loop: the
    priorities are the finish times of the reversed DAG, renumbered
    ``n-1-t`` so that its dependencies again point at lower ids."""
    n = len(arena)
    finish = reference_finish_times(
        _events(arena.dep_indptr, arena.dep_indices, durations)
    )
    sptr, sidx = arena.successors_csr()
    counts = np.diff(sptr)[::-1]
    rptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=rptr[1:])
    ridx = np.concatenate(
        [n - 1 - sidx[sptr[t] : sptr[t + 1]] for t in range(n - 1, -1, -1)]
    ) if n else np.zeros(0, dtype=np.int64)
    rev = reference_finish_times(_events(rptr, ridx, durations[::-1]))
    return finish, rev[::-1].copy()


def _frontier_passes(arena, durations):
    sptr, sidx = arena.successors_csr()
    n = len(arena)
    return (
        _longest_path(n, arena.dep_indptr, sptr, sidx, durations),
        _longest_path(n, sptr, arena.dep_indptr, arena.dep_indices, durations),
    )


def _assert_passes_agree(arena, durations):
    durations = np.asarray(durations, dtype=np.float64)
    finish = arena.finish_times(durations)
    prio = arena.critical_priorities(durations)
    for name, (f, p) in (
        ("frontier", _frontier_passes(arena, durations)),
        ("objects", _object_passes(arena, durations)),
    ):
        assert finish.tobytes() == f.tobytes(), (arena.name, name)
        assert prio.tobytes() == p.tobytes(), (arena.name, name)


def _edge_arenas():
    """The empty arena, one task, duplicate dependencies."""
    return [
        (_arena([0], [], "empty"), []),
        (_arena([0, 0], [], "one"), [2.5]),
        # 0 <- 1 twice; 2 depends on 0, 1, 1 and 0 again.
        (_arena([0, 0, 2, 6], [0, 0, 0, 1, 1, 0], "duplicates"), [1.0, 0.5, 0.25]),
    ]


@requires_cc
def test_compiled_pass_runs_here():
    assert longest_path_pass() == "compiled"


def test_generated_dags_match_frontier_and_objects(machine):
    for seed in range(40):
        case = gen_graph_case(seed, max_tasks=80)
        arena = case.graph.to_arena()
        sched = Scheduler(case.machine, threads=1)
        durs = arena.uncontended_durations(*sched._plan_key)
        _assert_passes_agree(arena, durs)
        want = np.asarray(sched._reference_priorities(arena), dtype=np.float64)
        assert arena.critical_priorities(durs).tobytes() == want.tobytes(), seed


def test_edge_shapes_match_frontier_and_objects():
    for arena, durs in _edge_arenas():
        _assert_passes_agree(arena, durs)
        _assert_passes_agree(arena, np.zeros(len(arena)))
    arena, _ = _edge_arenas()[2]
    assert arena.finish_times([1.0, 0.5, 0.25]).tolist() == [1.0, 1.5, 1.75]
    assert arena.critical_priorities([1.0, 0.5, 0.25]).tolist() == [1.75, 0.75, 0.25]


def test_all_zero_durations_finish_at_zero():
    arena = gen_graph_case(5, max_tasks=80).graph.to_arena()
    zeros = np.zeros(len(arena))
    assert arena.finish_times(zeros).tobytes() == zeros.tobytes()
    assert arena.critical_priorities(zeros).tobytes() == zeros.tobytes()


@pytest.mark.parametrize(
    "algorithm, ranks, c",
    [("summa25d", 8, 2), ("summa25d", 27, 3), ("summa15d", 8, 2),
     ("summa15d", 12, 2), ("caps-dist", 7, 1), ("caps-dist", 49, 1)],
)
def test_network_lowerings_match_frontier_and_objects(algorithm, ranks, c):
    prog = build_events(ClusterSpec(), algorithm, 1024, ranks, NetworkConfig(c=c))
    _assert_passes_agree(prog.arena, prog.durations)
    assert prog.finish_times().tobytes() == reference_finish_times(prog).tobytes()


def test_generated_network_cases_match_frontier_and_objects():
    for seed in range(12):
        case = gen_network_case(seed)
        prog = build_events(
            case.cluster, case.algorithm, case.n, case.ranks, case.config
        )
        _assert_passes_agree(prog.arena, prog.durations)


# ---- inputs are checked before any pass reads them ------------------------


@pytest.fixture
def no_pass(monkeypatch):
    """Fail the test if either pass (compiled or frontier) is reached."""

    def reached(*args):
        raise AssertionError("a longest-path pass read an unchecked input")

    monkeypatch.setattr(arena_mod, "_compiled_passes", reached)
    monkeypatch.setattr(arena_mod, "_longest_path", reached)


def _three_tasks():
    return _arena([0, 0, 1, 3], [0, 0, 1])


def test_malformed_arena_raises_before_any_pass(no_pass):
    durs = np.ones(3)
    for method in ("finish_times", "critical_priorities"):
        with pytest.raises(SchedulingError, match="unknown/future"):
            getattr(_arena([0, 0, 1, 3], [0, 2, 1]), method)(durs)
        with pytest.raises(SchedulingError, match="sentinel"):
            getattr(_arena([0, 0, 1, 3], [0, EXT_DEP, 1]), method)(durs)
        with pytest.raises(ValidationError, match="dep_indptr"):
            getattr(_arena([0, 0, 1, 4], [0, 0, 1]), method)(durs)


def test_nan_durations_are_rejected_up_front(no_pass):
    """``np.maximum`` propagates a NaN and the scalar loops skip it, so
    no pass may see one: both passes refuse it, naming the task."""
    durs = np.array([1.0, np.nan, 2.0])
    for method in ("finish_times", "critical_priorities"):
        with pytest.raises(ValidationError, match="task 1 has a NaN duration"):
            getattr(_three_tasks(), method)(durs)


def test_durations_must_cover_every_task(no_pass):
    for method in ("finish_times", "critical_priorities"):
        with pytest.raises(ValidationError, match="durations of shape"):
            getattr(_three_tasks(), method)(np.ones(2))


# ---- the degraded pass ----------------------------------------------------


def test_frontier_without_toolchain_has_the_same_bits_and_is_counted(monkeypatch):
    cases = [_arena(a.dep_indptr, a.dep_indices, a.name) for a, _ in _edge_arenas()]
    prog = build_events(ClusterSpec(), "caps-dist", 1024, 49, NetworkConfig())
    cases.append(prog.arena)
    rng = np.random.default_rng(0)
    inputs = [(a, rng.random(len(a))) for a in cases]
    want = [(a.finish_times(d), a.critical_priorities(d)) for a, d in inputs]

    monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", "none")
    assert longest_path_pass() == "frontier"
    before = jit.COMPILED_FALLBACKS.value
    with pytest.warns(RuntimeWarning, match="numpy frontier sweep"):
        got = [(a.finish_times(d), a.critical_priorities(d)) for a, d in inputs]
    assert jit.COMPILED_FALLBACKS.value == before + 2 * len(inputs)
    for (f, p), (wf, wp) in zip(got, want):
        assert f.tobytes() == wf.tobytes()
        assert p.tobytes() == wp.tobytes()


def test_spans_name_the_pass_that_ran(machine, monkeypatch):
    from repro.observability import trace

    expected = longest_path_pass()
    graph = gen_graph_case(1, max_tasks=40).graph.to_arena()
    with trace.tracing() as tracer:
        NetworkSweep(ClusterSpec(), "caps-dist").run(1024, [7])
        Scheduler(machine, 2, policy="critical", engine="fast").run(graph)
        Scheduler(machine, 2, policy="critical", engine="reference").run(graph)
        Scheduler(machine, 2, policy="fifo", engine="fast").run(graph)
        monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", "none")
        with pytest.warns(RuntimeWarning, match="numpy frontier sweep"):
            NetworkSweep(ClusterSpec(), "caps-dist").run(1024, [7])
    passes = [sp.attrs["finish_pass"] for sp in tracer.find("netsim.events")]
    assert passes == [expected, "frontier"]
    schedules = tracer.find("schedule")
    assert [sp.attrs.get("priorities") for sp in schedules] == [
        expected, "reference", None,
    ]


def test_network_command_prints_the_same_table_on_both_passes(capsys, monkeypatch):
    from repro.cli import main

    argv = ["distributed", "--simulate", "--alg", "caps-dist", "--n", "8192",
            "--nodes", "49", "343"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", "none")
    with pytest.warns(RuntimeWarning, match="numpy frontier sweep"):
        assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "caps-dist" in first
