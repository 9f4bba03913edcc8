"""The verification-report memo behind ``check_numerics``: cells that
share (program, DAG, operands) reuse one report, every cell still runs
its own exact checks, and nothing else is shared.  Every test starts
with an empty memo (the autouse ``_empty_report_memo`` fixture of
``tests/conftest.py``)."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.algorithms.program as program
from repro.algorithms.base import ReportMemo, numerics_digest, numerics_memo
from repro.algorithms.registry import make_algorithm
from repro.algorithms.strassen import StrassenWinograd
from repro.linalg.verify import VerificationReport
from repro.observability import trace
from repro.observability.metrics import registry
from repro.runtime.arena import _COST_FIELDS, TaskArena
from repro.runtime.scheduler import Scheduler
from repro.util.errors import SchedulingError, ValidationError


def _small_grain(machine, **params):
    """A Strassen whose 128² lowering has many tasks."""
    return StrassenWinograd(machine, cutoff=16, grain=32, **params)


class _Order:
    """A schedule stand-in that only knows its start order."""

    def __init__(self, order):
        self._order = list(order)

    def start_order(self):
        return self._order


def _check(machine, alg, n, threads, seed=0, arena=None):
    """``check_numerics`` of one cell in its simulated start order;
    returns ``(report, memo outcome, arena, order)``."""
    if arena is None:
        arena = alg.build_cached(n, threads).graph
    schedule = Scheduler(machine, threads).run(arena)
    before = registry().snapshot()
    report = alg.check_numerics(n, threads, schedule, arena, seed=seed)
    delta = registry().delta_since(before)
    hits, misses = delta.get("numerics.memo_hits", 0), delta.get("numerics.memo_misses", 0)
    assert hits + misses == 1
    return report, "hit" if hits else "miss", arena, schedule.start_order()


def _fresh(alg, n, threads, order, arena, seed=0):
    return alg.compute_product(n, threads, order, arena, seed=seed).verify()


def _same(a: VerificationReport, b: VerificationReport) -> bool:
    return (a.abs_error, a.bound) == (b.abs_error, b.bound)


@pytest.mark.parametrize(
    "name, threads",
    [("strassen", (1, 2, 3, 4)), ("caps", (1, 2, 3, 4)), ("openblas", (2, 4))],
)
def test_shared_dags_hit_and_match_a_fresh_check(machine, name, threads):
    alg = make_algorithm(name, machine)
    outcomes = []
    for p in threads:
        report, outcome, arena, order = _check(machine, alg, 256, p)
        outcomes.append(outcome)
        assert _same(report, _fresh(alg, 256, p, order, arena)), p
    assert outcomes == ["miss"] + ["hit"] * (len(threads) - 1)
    assert len(numerics_memo()) == 1


def test_openblas_thread_counts_with_their_own_dag_miss(machine):
    alg = make_algorithm("openblas", machine)
    assert [_check(machine, alg, 256, p)[1] for p in (1, 2, 3, 4)] == [
        "miss", "miss", "miss", "hit",
    ]


def _drop_one_edge(arena: TaskArena) -> TaskArena:
    """*arena* without the last dependency edge of its last dependent."""
    counts = arena.dep_counts.copy()
    owner = int(np.flatnonzero(counts)[-1])
    edge = int(arena.dep_indptr[owner + 1]) - 1
    counts[owner] -= 1
    return TaskArena(
        arena.name,
        arena.names,
        arena.name_ids,
        {f: getattr(arena, f) for f in _COST_FIELDS},
        arena.untied,
        arena.created_by,
        np.concatenate(([0], np.cumsum(counts))),
        np.delete(arena.dep_indices, edge),
    )


@pytest.mark.parametrize(
    "first, second",
    [
        pytest.param(({}, 128, 0), ({}, 128, 1), id="seed"),
        pytest.param(({}, 128, 0), ({"cutoff": 32, "grain": 32}, 128, 0), id="cutoff"),
        pytest.param(({}, 128, 0), ({"classic": True}, 128, 0), id="variant"),
        pytest.param(({}, 128, 0), ({}, 100, 0), id="pad"),
        pytest.param(
            ({"odd_strategy": "peel"}, 128, 0),
            ({"odd_strategy": "peel"}, 127, 0),
            id="peel",
        ),
    ],
)
def test_a_different_key_misses(machine, first, second):
    for params, n, seed in (first, second):
        alg = StrassenWinograd(machine, **{"cutoff": 16, "grain": 32, **params})
        report, outcome, arena, order = _check(machine, alg, n, 2, seed=seed)
        assert outcome == "miss"
        assert _same(report, _fresh(alg, n, 2, order, arena, seed=seed))
    assert len(numerics_memo()) == 2


def test_an_arena_with_a_dropped_edge_misses(machine):
    alg = _small_grain(machine)
    _, outcome, arena, _ = _check(machine, alg, 128, 2)
    assert outcome == "miss"
    _, outcome, _, _ = _check(machine, alg, 128, 2, arena=_drop_one_edge(arena))
    assert outcome == "miss"
    assert len(numerics_memo()) == 2


def test_every_cell_checks_its_own_order_and_length(machine):
    alg = _small_grain(machine)
    _, _, arena, order = _check(machine, alg, 128, 2)
    assert len(numerics_memo()) == 1
    with pytest.raises(SchedulingError, match="before its dependency"):
        alg.check_numerics(128, 2, _Order(reversed(order)), arena)
    with pytest.raises(SchedulingError, match="twice"):
        alg.check_numerics(128, 2, _Order([order[0]] + order[:-1]), arena)
    # The same arena from a lowering of another size: the program
    # stamped for n=128 must match the simulated graph task for task.
    other = alg.build_cached(64, 2).graph
    with pytest.raises(SchedulingError, match="numerics program has"):
        alg.check_numerics(128, 2, _Order(range(len(other))), other)


def test_a_memoized_failing_report_raises_on_every_hit(machine, monkeypatch):
    kernels = list(program._KERNELS)
    real = kernels[program.GEMM]

    def forged(v, cutoff):
        real(v, cutoff)
        v[2][0, 0] += 1.0

    kernels[program.GEMM] = forged
    monkeypatch.setattr(program, "_KERNELS", tuple(kernels))
    alg = make_algorithm("openblas", machine)
    arena = alg.build_cached(128, 2).graph
    schedule = Scheduler(machine, 2).run(arena)
    with pytest.raises(ValidationError, match="exceeds bound"):
        alg.check_numerics(128, 2, schedule, arena)
    monkeypatch.undo()  # the real kernels would pass: only the memo fails
    for _ in range(2):
        before = registry().snapshot()
        with pytest.raises(ValidationError, match="exceeds bound"):
            alg.check_numerics(128, 2, schedule, arena)
        assert registry().delta_since(before).get("numerics.memo_hits") == 1


def test_the_memo_is_bounded_and_holds_no_arrays(machine):
    memo = ReportMemo()
    for i in range(ReportMemo.MAXSIZE + 5):
        memo.store((128, i, "d"), VerificationReport(np.float64(i), 1e9))
    assert len(memo) == ReportMemo.MAXSIZE
    assert memo.lookup((128, 0, "d")) is None  # oldest evicted
    assert memo.lookup((128, ReportMemo.MAXSIZE + 4, "d")).abs_error == ReportMemo.MAXSIZE + 4

    for name in ("openblas", "strassen", "caps"):
        _check(machine, make_algorithm(name, machine), 128, 2)
    for key, value in numerics_memo().entries():
        assert [type(k) for k in key] == [int, int, str]
        assert [type(v) for v in value] == [float, float]


def test_compute_product_stays_uncached(machine):
    alg = _small_grain(machine)
    _, _, arena, order = _check(machine, alg, 128, 2)
    entries = numerics_memo().entries()
    first = alg.compute_product(128, 2, order, arena)
    second = alg.compute_product(128, 2, order, arena)
    assert not np.shares_memory(first.c, second.c)
    assert numerics_memo().entries() == entries


def test_numerics_span_names_the_memo_outcome(machine):
    alg = make_algorithm("caps", machine)
    with trace.tracing() as tr:
        for p in (1, 2):
            arena = alg.build_cached(128, p).graph
            alg.check_numerics(128, p, Scheduler(machine, p).run(arena), arena)
    spans = [
        (s.name, s.attrs.get("memo"))
        for s in tr.spans
        if s.name in ("numerics", "verify")
    ]
    assert spans == [("numerics", "miss"), ("verify", None), ("numerics", "hit")]


def test_digest_covers_program_and_dependencies(machine):
    alg = _small_grain(machine)
    arena = alg.build_cached(128, 2).graph
    prog = alg.numerics_program(128, 2)
    assert numerics_digest(prog, arena) == numerics_digest(alg.numerics_program(128, 3), arena)
    assert numerics_digest(prog, arena) != numerics_digest(prog, _drop_one_edge(arena))


def test_concurrent_checks_stay_consistent(machine):
    algs = [make_algorithm(name, machine) for name in ("strassen", "caps", "openblas")]
    cells = [(alg, p) for alg in algs for p in (1, 2, 3, 4)] * 3
    runs, fresh = {}, {}
    for alg, p in cells[:12]:
        arena = alg.build_arena(128, p).graph
        schedule = Scheduler(machine, p).run(arena)
        runs[alg.name, p] = (schedule, arena)
        fresh[alg.name, p] = _fresh(alg, 128, p, schedule.start_order(), arena)

    def check(cell):
        alg, p = cell
        return alg.check_numerics(128, p, *runs[alg.name, p])

    before = registry().snapshot()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleaving inside the memo
    try:
        with ThreadPoolExecutor(4) as pool:  # more threads than cores
            futures = [pool.submit(check, cell) for cell in cells]
            reports = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    delta = registry().delta_since(before)
    for (alg, p), report in zip(cells, reports):
        assert _same(report, fresh[alg.name, p]), (alg.name, p)
    calls = delta.get("numerics.memo_hits", 0) + delta.get("numerics.memo_misses", 0)
    assert calls == len(cells)
    # Strassen and CAPS share one key each, OpenBLAS has three.
    assert len(numerics_memo()) == 5
