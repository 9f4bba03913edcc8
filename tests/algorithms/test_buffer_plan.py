"""Numerics in planned memory: the temporaries of a run share storage by
liveness over the order it runs in, and the product keeps its bits."""

import numpy as np
import pytest

from repro.algorithms import CapsStrassen, StrassenWinograd
from repro.algorithms.program import planned_nbytes
from repro.runtime.scheduler import Scheduler
from repro.runtime.replay import depth_first_order
from repro.testing.oracle import reference_product
from repro.util.errors import ValidationError

def _caps(depth, pack):
    params = {"cutoff_depth": depth, "leaf_cutoff": 16, "dfs_grain": 32}
    return CapsStrassen, dict(params, pack=pack)


VARIANTS = {
    "strassen-pad": (StrassenWinograd, {"cutoff": 16, "grain": 32}),
    "strassen-peel": (
        StrassenWinograd, {"cutoff": 16, "grain": 32, "odd_strategy": "peel"}
    ),
    "strassen-classic": (
        StrassenWinograd, {"cutoff": 16, "grain": 32, "classic": True}
    ),
    "caps-bfs-pack": _caps(4, True),
    "caps-bfs": _caps(4, False),
    "caps-dfs-pack": _caps(0, True),
    "caps-dfs": _caps(0, False),
}


def _orders(machine, alg, n, threads):
    """The start order of the simulated schedule and the canonical
    depth-first linear extension, with the arena."""
    arena = alg.build_arena(n, threads).graph
    start = Scheduler(machine, threads).run(arena).start_order()
    return arena, {"start": start, "depth_first": depth_first_order(arena)}


def _run_poisoned(program, a, b, order):
    """Run *program* in *order* in planned buffers, filling a slot with
    NaN each time a temporary takes it over: an op that read a former
    owner's data, or data nobody wrote, would carry the NaN into C."""
    plan = program.plan(order)
    bufs = program.allocate(a, b, order)
    takeovers: dict[int, list[int]] = {}
    for t, pos in enumerate(plan.first.tolist()):
        takeovers.setdefault(pos, []).append(t)
    for pos, tid in enumerate(order):
        for t in takeovers.get(pos, ()):
            bufs[3 + t].fill(np.nan)
        program.run_op(bufs, tid)
    return bufs[2][: program.n, : program.n]


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [64, 100, 128, 256])
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_planned_slots_are_sound_and_keep_the_product(machine, variant, n, threads):
    cls, params = VARIANTS[variant]
    alg = cls(machine, **params)
    program = alg.numerics_program(n, threads)
    arena, orders = _orders(machine, alg, n, threads)
    a, b = alg.operands(n, seed=2015)
    want = np.ascontiguousarray(reference_product(alg, a, b, threads)).tobytes()
    for name, order in orders.items():
        plan = program.plan(order)
        # Slot-mates have the slot's shape and disjoint access intervals.
        assert np.array_equal(plan.shapes[plan.slot], program.shapes)
        by_slot = np.lexsort((plan.first, plan.slot))
        mates = plan.slot[by_slot][1:] == plan.slot[by_slot][:-1]
        gaps = plan.first[by_slot][1:] - plan.last[by_slot][:-1]
        assert np.all(gaps[mates] > 0), name
        # The allocation follows the plan; A, B and C are never shared.
        bufs = program.allocate(a, b, order)
        _, owner = np.unique(plan.slot, return_index=True)
        temps = bufs[3:]
        assert all(x is temps[owner[s]] for x, s in zip(temps, plan.slot.tolist()))
        assert len({id(x) for x in temps}) == len(plan.shapes)
        assert not {id(x) for x in bufs[:3]} & {id(x) for x in temps}
        c = _run_poisoned(program, a, b, order)
        assert np.ascontiguousarray(c).tobytes() == want, (name, variant)


def test_caps_512_plans_well_under_its_unplanned_temporaries(machine):
    alg = CapsStrassen(machine)
    program = alg.numerics_program(512, 1)
    _, orders = _orders(machine, alg, 512, 1)
    a, b = alg.operands(512, seed=0)
    bufs = program.allocate(a, b, orders["start"])
    assert program.temp_nbytes / 2**20 == pytest.approx(81.375)
    assert planned_nbytes(bufs) <= 0.4 * program.temp_nbytes


def test_every_temporary_is_accessed_inside_its_interval(machine):
    """``first``/``last`` are exactly the first and last positions of
    the order whose ops touch the temporary."""
    alg = StrassenWinograd(machine, cutoff=16, grain=32)
    program = alg.numerics_program(100, 3)
    _, orders = _orders(machine, alg, 100, 3)
    order = orders["start"]
    plan = program.plan(order)
    seen: dict[int, list[int]] = {}
    for pos, tid in enumerate(order):
        for buf in program.views[program.ptr[tid] : program.ptr[tid + 1], 0]:
            if buf >= 3:
                seen.setdefault(int(buf) - 3, []).append(pos)
    assert sorted(seen) == list(range(len(program.shapes)))
    assert [min(seen[t]) for t in sorted(seen)] == plan.first.tolist()
    assert [max(seen[t]) for t in sorted(seen)] == plan.last.tolist()


def test_a_plan_needs_the_whole_order(machine):
    program = StrassenWinograd(machine, cutoff=16).numerics_program(64, 1)
    with pytest.raises(ValidationError, match="all"):
        program.plan(list(range(len(program) - 1)))


def test_span_reports_planned_and_unplanned_temporaries(machine):
    from repro.algorithms.base import numerics_memo
    from repro.observability import trace

    alg = CapsStrassen(machine, leaf_cutoff=16, dfs_grain=32)
    arena = alg.build_arena(128, 2).graph
    schedule = Scheduler(machine, 2).run(arena)
    numerics_memo().clear()
    with trace.tracing() as tracer:
        alg.check_numerics(128, 2, schedule, arena)
    (span,) = tracer.find("numerics")
    program = alg.numerics_program(128, 2)
    assert span.attrs["temp_mb_unplanned"] == program.temp_nbytes / 2**20
    assert 0 < span.attrs["temp_mb"] < span.attrs["temp_mb_unplanned"]


def _plan_mib(program, order):
    """MiB of the temporaries' planned slots, without allocating them."""
    plan = program.plan(order)
    return float(np.prod(plan.shapes, axis=1).sum()) * 8 / 2**20


def test_a_miss_runs_in_the_depth_first_order(machine):
    from repro.algorithms.base import numerics_memo
    from repro.observability import trace

    alg = CapsStrassen(machine, leaf_cutoff=16, dfs_grain=32)
    arena = alg.build_arena(128, 2).graph
    schedule = Scheduler(machine, 2).run(arena)
    numerics_memo().clear()
    with trace.tracing() as tracer:
        alg.check_numerics(128, 2, schedule, arena)
    (span,) = tracer.find("numerics")
    assert span.attrs["memo"] == "miss"
    program = alg.numerics_program(128, 2)
    a, b = alg.operands(128, seed=0)
    bufs = program.allocate(a, b, depth_first_order(arena))
    assert span.attrs["temp_mb"] == planned_nbytes(bufs) / 2**20
    assert span.attrs["temp_mb"] < _plan_mib(program, schedule.start_order())


def test_caps_1024_plans_under_32_mib_depth_first(machine):
    """The paper study's largest verified cell plans ~200 MiB of
    temporaries in a start order; depth-first they fit in 32 MiB."""
    alg = CapsStrassen(machine)
    arena = alg.build_arena(1024, 4).graph
    program = alg.numerics_program(1024, 4)
    assert _plan_mib(program, depth_first_order(arena)) <= 32


class _ReversedSchedule:
    """A schedule whose start order runs every task before its
    dependencies."""

    def __init__(self, schedule):
        self._order = schedule.start_order()[::-1]

    def start_order(self):
        return self._order


@pytest.mark.parametrize("memo", ["fresh", "memoized"])
def test_a_bad_start_order_raises_before_anything_runs(machine, monkeypatch, memo):
    from repro.algorithms.base import numerics_memo
    from repro.util.errors import SchedulingError

    alg = CapsStrassen(machine, leaf_cutoff=16, dfs_grain=32)
    arena = alg.build_arena(128, 2).graph
    schedule = Scheduler(machine, 2).run(arena)
    if memo == "memoized":
        alg.check_numerics(128, 2, schedule, arena)
    entries = numerics_memo().entries()

    def never(*args, **kwargs):
        raise AssertionError("the program ran")

    monkeypatch.setattr(alg, "_run_program", never)
    with pytest.raises(SchedulingError, match="before its dependency"):
        alg.check_numerics(128, 2, _ReversedSchedule(schedule), arena)
    assert numerics_memo().entries() == entries
