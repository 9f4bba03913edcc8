"""The vectorized plan bundle against the object seat-plan builder.

:func:`repro.runtime.plans.build_bundle` derives every column the event
kernels read from an arena's SoA columns with numpy.  The oracle is the
object builder :func:`repro.testing.seatplans.object_seat_plan` run over
``TaskGraph.from_arena(arena)``, its per-task seat tuples flattened
into the same columns here: the two must agree column by column,
dtype and bytes, on real lowerings and on hand-built edge arenas (bad service rates, sub-EPS and exactly-zero
demands, creator affinity, the empty graph).
"""

import numpy as np
import pytest

from repro.algorithms import BlockedGemm, CapsStrassen, StrassenWinograd
from repro.machine.specs import dual_socket_haswell
from repro.runtime import compiledpath, fastpath
from repro.runtime.arena import TaskArena
from repro.runtime.cost import TaskCost
from repro.runtime.plans import build_bundle
from repro.runtime.scheduler import Scheduler
from repro.testing.seatplans import object_seat_plan
from repro.testing.taskgraph import TaskGraph
from repro.util.errors import SchedulingError

requires_cc = pytest.mark.skipif(
    not compiledpath.compiled_available()[0],
    reason=f"compiled engine unavailable: {compiledpath.compiled_available()[1]}",
)

COLUMNS = (
    "priv_ptr", "priv_dim", "priv_rate", "priv_dur", "priv_adj", "priv_dem",
    "shr_ptr", "shr_dim", "shr_work",
    "alive0", "affinity", "zeros", "created", "indeg0",
    "succ_ptr", "succ_idx", "seeds",
)


def machine_key(machine, **override):
    key = Scheduler(machine, 1, engine="fast")._plan_key
    names = ("core_peak", "l1_bw", "l2_bw", "l3_bw", "dram_bw")
    return tuple(override.get(k, v) for k, v in zip(names, key))


def _ptr(sizes) -> np.ndarray:
    ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.asarray(sizes, dtype=np.int64), out=ptr[1:])
    return ptr


def object_bundle(graph, key) -> dict:
    """The bundle columns rebuilt from the object builder's seat tuples."""
    gp = object_seat_plan(graph, key)
    priv = [e for plan in gp.plans for e in plan[0]]
    shr = [e for plan in gp.plans for e in plan[1]]
    succ = graph._successors

    def col(rows, j, dtype):
        return np.array([r[j] for r in rows], dtype=dtype)

    alive0 = np.array([p[2] for p in gp.plans], dtype=np.int64)
    return {
        "priv_ptr": _ptr([len(p[0]) for p in gp.plans]),
        "priv_dim": col(priv, 0, np.int64),
        "priv_rate": col(priv, 1, np.float64),
        "priv_dur": col(priv, 2, np.float64),
        "priv_adj": col(priv, 3, np.float64),
        "priv_dem": col(priv, 4, np.float64),
        "shr_ptr": _ptr([len(p[1]) for p in gp.plans]),
        "shr_dim": col(shr, 0, np.int64),
        "shr_work": col(shr, 1, np.float64),
        "alive0": alive0,
        "affinity": np.array([p[3] for p in gp.plans], dtype=np.uint8),
        "zeros": np.array(gp.zeros, dtype=np.uint8),
        "created": np.array(
            [-1 if c is None else c for c in gp.created], dtype=np.int64
        ),
        "indeg0": np.array(gp.indeg0, dtype=np.int64),
        "succ_ptr": _ptr([len(s) for s in succ]),
        "succ_idx": np.array([t for s in succ for t in s], dtype=np.int64),
        "seeds": np.array(gp.seeds, dtype=np.int64),
        "any_created": gp.any_created,
        "total_entries": int(np.maximum(alive0, 0).sum()),
    }


def assert_bundle_matches_object_builder(arena, key):
    cp = build_bundle(arena, key)
    graph = TaskGraph.from_arena(arena)
    want = object_bundle(graph, key)
    for name in COLUMNS:
        got = getattr(cp, name)
        assert got.dtype == want[name].dtype, name
        assert got.flags["C_CONTIGUOUS"], name  # the C kernel reads raw pointers
        assert got.tobytes() == want[name].tobytes(), name
    assert cp.n == len(arena)
    assert cp.any_created == want["any_created"]
    assert cp.total_entries == want["total_entries"]
    # The fast kernel's seat tuples derived from the bundle are the
    # object builder's, task for task.
    gp = object_seat_plan(graph, key)
    seat = fastpath._seat_plan(arena, cp)
    assert seat.plans == gp.plans
    for field in ("zeros", "seeds", "indeg0", "created"):
        assert getattr(seat, field) == getattr(gp, field), field
    assert seat.any_created == gp.any_created
    assert seat.zero_seed == gp.zero_seed


def edge_arena(rows, deps=(), untied=None, created=None, name="edge"):
    """An arena straight from columns — no ``TaskCost`` validation, so
    zero efficiencies are representable."""
    n = len(rows)
    cols = np.array(rows, dtype=np.float64).reshape(n, 6)
    fields = ("flops", "efficiency", "bytes_l1", "bytes_l2", "bytes_l3", "bytes_dram")
    deps = list(deps) or [()] * n
    return TaskArena(
        name=name,
        names=tuple(f"t{i}" for i in range(n)) or ("t",),
        name_ids=np.arange(n, dtype=np.int32),
        cost_columns={f: cols[:, j] for j, f in enumerate(fields)},
        untied=np.array(untied if untied is not None else [True] * n, dtype=bool),
        created_by=np.array(created if created is not None else [-1] * n, dtype=np.int64),
        dep_indptr=_ptr([len(d) for d in deps]),
        dep_indices=np.array([d for ds in deps for d in ds], dtype=np.int64),
    )


EPS = 1e-9

#: (flops, efficiency, bytes_l1, bytes_l2, bytes_l3, bytes_dram)
EDGE_ROWS = [
    (1e6, 0.0, 64.0, 0.0, 0.0, 0.0),        # zero efficiency: dim 0 bad
    (1e6, 0.5, 0.0, 32.0, 128.0, 256.0),    # every kind of live entry
    (0.0, 1.0, 0.0, 0.0, 0.0, 0.0),         # exactly zero (a join)
    (EPS / 2, 1.0, 0.0, 0.0, EPS, 0.0),     # sub-EPS / at-EPS only: trivial
    (EPS, 0.9, 2 * EPS, 0.0, 0.0, EPS / 4), # EPS itself is not above EPS
    (1e3, 1.0, 1e3, 1e3, 0.0, 1e-12),       # sub-EPS shared demand dropped
    (0.0, 0.0, 50.0, 0.0, 0.0, 0.0),        # zero efficiency without flops
    (-0.0, 1.0, 0.0, 0.0, 0.0, 0.0),        # negative zero is exactly zero
]


def edge_case():
    n = len(EDGE_ROWS)
    deps = [(), (0,), (), (1, 2), (3,), (), (4, 5), (6,)]
    untied = [True, False, True, False, True, False, False, True]
    created = [-1, 0, 0, 1, 1, -1, 5, 6]
    assert len(deps) == len(untied) == len(created) == n
    return edge_arena(EDGE_ROWS, deps, untied, created)


# ---------------------------------------------------------------------------
# real lowerings


@pytest.mark.parametrize("alg_cls", [BlockedGemm, StrassenWinograd, CapsStrassen])
@pytest.mark.parametrize("threads", [1, 3])
def test_bundle_matches_object_builder_on_lowerings(machine, alg_cls, threads):
    arena = alg_cls(machine).build_arena(256, threads).graph
    assert len(arena) > 1
    assert_bundle_matches_object_builder(arena, machine_key(machine))


def test_bundle_matches_on_a_dual_socket_machine():
    machine = dual_socket_haswell()
    arena = StrassenWinograd(machine).build_arena(256, 8).graph
    assert_bundle_matches_object_builder(arena, machine_key(machine))


# ---------------------------------------------------------------------------
# edge arenas


@pytest.fixture
def unvalidated_costs(monkeypatch):
    """``TaskGraph.from_arena(arena)`` rebuilds ``TaskCost``s, whose validator
    rejects the zero efficiencies the edge arenas carry on purpose."""
    monkeypatch.setattr(TaskCost, "__post_init__", lambda self: None)


def test_edge_arena_matches_object_builder(machine, unvalidated_costs):
    arena = edge_case()
    cp = build_bundle(arena, machine_key(machine))
    # Task 0's flops have no service rate (dim 0 reported, although its
    # L1 entry is live); task 6 has zero efficiency but no flops.
    assert cp.alive0.tolist() == [-1, 4, 0, 0, 1, 3, 1, 0]
    assert cp.affinity.tolist() == [0, 1, 0, 1, 0, 0, 1, 0]
    assert cp.zeros.tolist() == [0, 0, 1, 0, 0, 0, 0, 1]
    assert_bundle_matches_object_builder(arena, machine_key(machine))


@pytest.mark.parametrize(
    "override",
    [{"l1_bw": 0.0}, {"l2_bw": 0.0}, {"l1_bw": 0.0, "l2_bw": 0.0}],
    ids=["l1_bw=0", "l2_bw=0", "l1_bw=l2_bw=0"],
)
def test_edge_arena_on_a_machine_without_cache_bandwidth(
    machine, override, unvalidated_costs
):
    key = machine_key(machine, **override)
    cp = build_bundle(edge_case(), key)
    assert cp.alive0[0] == -1  # the first bad dim wins
    assert cp.alive0[6] == (-2 if "l1_bw" in override else 1)
    assert cp.alive0[1] == (-3 if "l2_bw" in override else 4)
    assert_bundle_matches_object_builder(edge_case(), key)


def test_empty_arena(machine):
    arena = edge_arena([])
    cp = build_bundle(arena, machine_key(machine))
    assert cp.n == 0 and cp.total_entries == 0 and not cp.any_created
    assert_bundle_matches_object_builder(arena, machine_key(machine))


@requires_cc
def test_zero_rate_arena_raises_the_same_error_from_both_kernels(machine):
    arena = edge_arena(
        [(1e6, 0.5, 0.0, 0.0, 0.0, 0.0), (1e6, 0.0, 8.0, 0.0, 0.0, 0.0)],
        deps=[(), (0,)],
    )

    def run(engine):
        sched = Scheduler(machine, 2, engine=engine)
        with pytest.raises(SchedulingError) as exc:
            sched.run(arena)
        return str(exc.value)

    assert run("fast") == run("compiled")
    assert run("fast") == "task 't1' has demand in dim 0 but zero service rate"


def test_seat_plan_dedup_survives_a_hash_collision(machine, monkeypatch):
    """Tasks share seat tuples only when their cost rows are equal: a
    grouping that lumps distinct rows together (a forced collision) is
    detected and every task gets its own tuple."""
    arena = StrassenWinograd(machine).build_arena(256, 2).graph
    key = machine_key(machine)
    want = object_seat_plan(TaskGraph.from_arena(arena), key).plans
    real_unique = np.unique

    def colliding_unique(values, **kwargs):
        _, first, inverse = real_unique(values, **kwargs)
        return None, first[:1], np.zeros_like(inverse)

    monkeypatch.setattr(fastpath.np, "unique", colliding_unique)
    first, inverse = fastpath._distinct_rows(arena, build_bundle(arena, key).affinity)
    assert len(first) == len(arena)
    assert fastpath._seat_plan(arena, build_bundle(arena, key)).plans == want
