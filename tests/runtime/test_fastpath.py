"""Differential identity: the fast event kernel vs the reference loop.

The fast kernel (:mod:`repro.runtime.fastpath`) must reproduce the
reference scalar loop's schedule *decision-for-decision*: identical
makespan, identical task records (placement, order, start/end times),
and identical activity intervals.  The single permitted structural
difference is interval bookkeeping around sub-EPS residues: the
reference sometimes emits zero-width intervals when it zeroes trivial
demands stepwise, while the fast kernel folds those into the adjacent
interval.  :func:`canonical_intervals` merges zero-width intervals
backward so both engines compare on the same canonical sequence; every
activity integral is preserved by the merge.

The comparison contract is layered:

* makespan, record times, interval bounds, and whole-run activity
  integrals: 1e-12 relative.  (The fast kernel's work-space exhaust
  corrections make the integrals conserve demand exactly like the
  reference's stepwise ``rem -= rate*dt`` accounting.)
* per-interval activity rows: 1e-9 relative to the row, with a
  1e-12-of-the-run-total floor for near-zero rows.  The engines'
  event times agree only to a few ulps (absolute exhaust times versus
  stepwise decrements), and on a nanosecond-wide interval that time
  ulp times a 1e11 B/s bandwidth is ~1e-6 bytes — a ~1e-9 relative
  wiggle in the row itself.  A real accounting bug (wrong rate seated,
  missed exhaust) shifts a row at O(1) relative, nine orders above.
"""

import random

import pytest

from repro.machine import generic_smp, haswell_e3_1225
from repro.machine.specs import dual_socket_haswell
from repro.runtime.cost import TaskCost
from repro.runtime.scheduler import ActivityInterval, Scheduler
from repro.runtime.task import TaskGraph

REL = 1e-12

POLICIES = ("fifo", "lifo", "critical", "steal")


# ---------------------------------------------------------------------------
# comparison helpers


def canonical_intervals(intervals):
    """Merge zero-width intervals backward into their predecessor.

    Preserves every activity integral (flops, bytes per level, and
    busy-core-seconds) exactly; only the degenerate zero-duration
    bookkeeping rows disappear.  A leading zero-width interval (no
    predecessor) is kept as-is.
    """
    out: list[ActivityInterval] = []
    for iv in intervals:
        if out and iv.t_end == iv.t_start:
            p = out[-1]
            out[-1] = ActivityInterval(
                t_start=p.t_start,
                t_end=p.t_end,
                busy_cores=p.busy_cores,
                flops=p.flops + iv.flops,
                bytes_l1=p.bytes_l1 + iv.bytes_l1,
                bytes_l2=p.bytes_l2 + iv.bytes_l2,
                bytes_l3=p.bytes_l3 + iv.bytes_l3,
                bytes_dram=p.bytes_dram + iv.bytes_dram,
            )
        else:
            out.append(iv)
    return out


REL_ROW = 1e-9  # per-interval rows (see module docstring)


def _close(a: float, b: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b), scale)


def _close_row(a: float, b: float, total: float) -> bool:
    return abs(a - b) <= max(
        REL_ROW * max(abs(a), abs(b)), REL * max(1.0, total)
    )


def assert_schedules_match(ref, fast):
    """Assert the reference and fast schedules are identical (within
    1e-12 relative) in makespan, records, and canonical intervals."""
    assert _close(ref.makespan, fast.makespan), (
        f"makespan diverged: {ref.makespan!r} vs {fast.makespan!r}"
    )

    assert len(ref.records) == len(fast.records)
    for r, f in zip(ref.records, fast.records):
        assert (r.tid, r.name, r.core) == (f.tid, f.name, f.core), (
            f"placement diverged: {r} vs {f}"
        )
        assert _close(r.start, f.start) and _close(r.end, f.end), (
            f"timing diverged: {r} vs {f}"
        )

    ri = canonical_intervals(ref.intervals)
    fi = canonical_intervals(fast.intervals)
    assert len(ri) == len(fi), (
        f"interval count diverged: {len(ri)} vs {len(fi)}"
    )
    dims = ("flops", "bytes_l1", "bytes_l2", "bytes_l3", "bytes_dram")
    # Run-scale anchors for the per-interval rows (see module docstring).
    totals = {d: sum(getattr(i, d) for i in ref.intervals) for d in dims}
    busy_total = ref.stats.busy_core_seconds
    for k, (a, b) in enumerate(zip(ri, fi)):
        assert _close(a.t_start, b.t_start) and _close(a.t_end, b.t_end), (
            f"interval[{k}] bounds diverged: {a} vs {b}"
        )
        for dim in dims:
            assert _close_row(getattr(a, dim), getattr(b, dim), totals[dim]), (
                f"interval[{k}].{dim} diverged: {a} vs {b}"
            )
        assert _close_row(
            a.busy_cores * a.duration, b.busy_cores * b.duration, busy_total
        ), f"interval[{k}] busy-core-seconds diverged: {a} vs {b}"

    # Whole-run activity integrals (insensitive to canonicalization).
    for dim in ("flops", "bytes_l1", "bytes_l2", "bytes_l3", "bytes_dram"):
        sa = sum(getattr(i, dim) for i in ref.intervals)
        sb = sum(getattr(i, dim) for i in fast.intervals)
        assert _close(sa, sb), f"total {dim} diverged: {sa} vs {sb}"

    # Scheduler statistics follow from the decisions; check the
    # integer-valued ones exactly.
    assert ref.stats.task_count == fast.stats.task_count
    assert ref.stats.migrations == fast.stats.migrations
    assert ref.stats.steals == fast.stats.steals


# ---------------------------------------------------------------------------
# workload generators


def wide_graph(n: int = 150) -> TaskGraph:
    """Independent tasks with randomized demands in every dimension."""
    g = TaskGraph("wide")
    rng = random.Random(7)
    for i in range(n):
        g.add(
            f"t{i}",
            TaskCost(
                flops=rng.uniform(1e5, 1e7),
                bytes_l1=rng.uniform(1e3, 1e5),
                bytes_l2=rng.uniform(1e3, 1e5),
                bytes_l3=rng.uniform(1e2, 1e4),
                bytes_dram=rng.uniform(1e2, 1e6),
            ),
        )
    return g


def random_dag(seed: int, n: int = 250) -> TaskGraph:
    """A randomized DAG exercising every scheduler feature: mixed
    dependencies, zero-cost joins, single-dimension demands, tied
    tasks, and creator affinity."""
    rng = random.Random(seed)
    g = TaskGraph(f"rand{seed}")
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
        g.add(
            f"t{i}",
            cost,
            deps=deps,
            untied=rng.random() < 0.5,
            created_by=created_by,
        )
    return g


def strassen_graph(machine) -> TaskGraph:
    """A real algorithm lowering (nontrivial structure + cost mix)."""
    from repro.algorithms import StrassenWinograd

    return StrassenWinograd(machine).build(256, 4, seed=0, execute=False).graph


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
    """>=96 seat entries flips the fast kernel onto its numpy event
    path; the identity must hold there too."""
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
    g = TaskGraph("zeros")
    for i in range(20):
        deps = [i - 1] if i else []
        g.add(f"z{i}", TaskCost(), deps=deps)
    for policy in POLICIES:
        ref, fast = _run_both(machine, g, policy, 2)
        assert_schedules_match(ref, fast)
        assert fast.makespan == 0.0


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("store", ["list", "numpy"])
def test_event_store_pinned_both_sides_of_threshold(machine, policy, store, monkeypatch):
    """Pin the texp_adj store to each implementation on the *same*
    cases and demand the reference identity from both.

    The fast kernel keeps its event store as a plain Python list below
    :data:`_NUMPY_THRESHOLD` seat entries and as a numpy array above
    it.  The two stores must be pure implementation detail: pinning the
    threshold so the 4-core paper machine (20 entries, normally list)
    runs the numpy step, and a 24-core machine (120 entries, normally
    numpy) runs the list step, must not change a single decision.
    """
    from repro.runtime import fastpath

    monkeypatch.setattr(
        fastpath, "_NUMPY_THRESHOLD", 0 if store == "numpy" else 10_000
    )
    for m in (machine, generic_smp(cores=24)):
        graph = random_dag(17, n=150)
        ref, fast = _run_both(m, graph, policy, m.cores)
        assert_schedules_match(ref, fast)


@pytest.mark.parametrize("policy", ["fifo", "steal"])
def test_event_store_crossover_is_invisible(policy, monkeypatch):
    """Straddle the real threshold: 19 threads (95 entries) takes the
    list step, 20 threads (100 entries) the numpy step — and pinning
    the *other* store onto the same machine is bit-identical, so the
    crossover cannot be observed in any schedule."""
    from repro.runtime import fastpath

    assert fastpath._NUMPY_THRESHOLD == 96
    graph = random_dag(23, n=200)
    for cores in (19, 20):  # 95 / 100 seat entries
        m = generic_smp(cores=cores)
        natural = Scheduler(
            m, cores, policy, engine="fast"
        ).run(graph)
        flipped_threshold = 10_000 if cores * 5 >= 96 else 0
        monkeypatch.setattr(fastpath, "_NUMPY_THRESHOLD", flipped_threshold)
        flipped = Scheduler(
            m, cores, policy, engine="fast"
        ).run(graph)
        monkeypatch.setattr(fastpath, "_NUMPY_THRESHOLD", 96)
        assert natural.makespan == flipped.makespan
        assert natural.intervals == flipped.intervals
        assert natural.stats == flipped.stats
        for a, b in zip(natural.records, flipped.records):
            assert (a.tid, a.core, a.start, a.end) == (b.tid, b.core, b.start, b.end)


def test_graph_plan_cache_reused_and_extended(machine):
    """An object graph's plan lives on its cached arena twin: it
    survives repeat runs and is rebuilt to cover tasks added later."""
    from repro.runtime.plans import arena_of

    g = wide_graph(30)
    sched = Scheduler(machine, 2, engine="fast")
    sched.run(g)
    arena = arena_of(g)
    gp = arena._plan_bundle.seat_plan
    assert len(gp.plans) == 30
    sched.run(g)
    assert arena_of(g) is arena and arena._plan_bundle.seat_plan is gp  # reused

    g.add("late", TaskCost(flops=1e6), deps=[0])
    ref = Scheduler(machine, 2, engine="reference").run(g)
    fast = sched.run(g)
    assert len(arena_of(g)._plan_bundle.seat_plan.plans) == 31  # extended
    assert_schedules_match(ref, fast)
