"""The store-served path: one synchronous pass over a grid, memoized
cell keys, and the provenance every cell reports.

A grid is resolved cell by cell in serial order before anything is
awaited: a store hit is answered on the spot, an in-flight cell attaches
to the running computation, and a cold cell joins the next batch.  Only
the in-flight and cold cells are awaited, so a grid the store answers in
full creates no asyncio task.  Keys are memoized per
:class:`~repro.service.CellSpec`; a memoized key must be exactly the key
:func:`~repro.core.resultstore.cell_key` derives afresh.
"""

import asyncio

import pytest

from repro.algorithms.registry import make_algorithm
from repro.core.resultstore import (
    algorithm_fingerprint,
    cell_key,
    engine_fingerprint,
    machine_fingerprint,
)
from repro.observability import trace
from repro.observability.metrics import registry
from repro.service import CellSpec, ServiceConfig, StudyRequest, StudyService
from repro.sim.engine import Engine

BASE = CellSpec("openblas", 64, 1, seed=2015, execute=False)

#: *BASE* with each of the five ``CellSpec`` fields changed in turn.
ONE_FIELD_OFF = (
    CellSpec("strassen", 64, 1, seed=2015, execute=False),
    CellSpec("openblas", 96, 1, seed=2015, execute=False),
    CellSpec("openblas", 64, 2, seed=2015, execute=False),
    CellSpec("openblas", 64, 1, seed=7, execute=False),
    CellSpec("openblas", 64, 1, seed=2015, execute=True),
)

GRID = StudyRequest(("openblas", "strassen"), (64,), threads=(1, 2),
                    execute_max_n=0)


def run(coro):
    return asyncio.run(coro)


def _fresh_key(machine, spec: CellSpec) -> str:
    """*spec*'s key derived from scratch, without any service state."""
    return cell_key(
        machine_fingerprint(machine),
        algorithm_fingerprint(make_algorithm(spec.algorithm, machine)),
        spec.n,
        spec.threads,
        seed=spec.seed,
        verified=spec.execute,  # a default service verifies
        engine=engine_fingerprint(Engine(machine)),
    )


# ---------------------------------------------------------------------------
# the key memo


def test_memoized_keys_equal_fresh_cell_keys_past_the_bound(machine):
    """Asked in rounds, so later rounds are answered by the memo (or
    re-derived after eviction: the memo holds three specs of six)."""
    specs = (BASE,) + ONE_FIELD_OFF
    service = StudyService(machine, config=ServiceConfig(cache_entries=3))
    try:
        for _ in range(3):
            for spec in specs + specs[::-1]:
                assert service.key_for(spec) == _fresh_key(machine, spec), spec
                assert len(service._keys) <= 3
    finally:
        service._executor.close()


def test_specs_one_field_apart_never_share_a_key(machine):
    service = StudyService(machine)
    try:
        first = [service.key_for(spec) for spec in (BASE,) + ONE_FIELD_OFF]
        again = [service.key_for(spec) for spec in ONE_FIELD_OFF + (BASE,)]
    finally:
        service._executor.close()
    assert len(set(first)) == len(first)
    assert again == first[1:] + first[:1]


# ---------------------------------------------------------------------------
# one pass over a grid


def test_mixed_grid_keeps_serial_order_and_provenance(machine, tmp_path):
    """Stored, in-flight and cold cells interleaved in one grid: every
    cell comes back in its serial slot, with its own measurement."""
    stored = CellSpec("openblas", 64, 2)
    inflight = CellSpec("strassen", 64, 1)

    async def reference():
        async with StudyService(machine) as svc:
            return {c.spec: c.measurement for c in (await svc.query(GRID)).cells}

    async def drive():
        async with StudyService(machine, store=tmp_path / "cells") as svc:
            await svc.query_cell(stored)
            snap = registry().snapshot()
            other = asyncio.create_task(svc.query_cell(inflight))
            await asyncio.sleep(0)  # the other client registers its cell
            response = await svc.query(GRID)
            return response, await other, registry().delta_since(snap), svc

    expected = run(reference())
    response, other, delta, svc = run(drive())
    assert [c.spec for c in response.cells] == GRID.cells()
    assert [c.source for c in response.cells] == [
        "computed", "store", "inflight", "computed"
    ]
    assert other.source == "computed"
    for cell in response.cells:
        assert cell.key == svc.key_for(cell.spec)
        assert cell.measurement.elapsed_s == expected[cell.spec].elapsed_s
        assert cell.measurement.energy.package == expected[cell.spec].energy.package
    assert delta.get("service.cells_requested", 0) == 1 + len(GRID.cells())
    assert delta.get("service.cells_deduped", 0) == 1
    assert delta.get("service.cells_computed", 0) == 3


def test_all_hit_grid_creates_no_task_and_never_yields(machine, tmp_path):
    async def drive():
        async with StudyService(machine, store=tmp_path / "cells") as svc:
            loop = asyncio.get_running_loop()
            created = []
            real_create_task = loop.create_task

            def counting_create_task(coro, **kwargs):
                created.append(coro)
                return real_create_task(coro, **kwargs)

            loop.create_task = counting_create_task
            try:
                cold = await svc.query(GRID)
                cold_tasks = len(created)
                created.clear()
                hot = await svc.query(GRID)
                hot_tasks = len(created)
            finally:
                del loop.create_task
            # Stepped by hand: an all-hit query finishes on its first step.
            step = svc.query(GRID)
            with pytest.raises(StopIteration) as done:
                step.send(None)
            return cold, cold_tasks, hot, hot_tasks, done.value.value

    cold, cold_tasks, hot, hot_tasks, stepped = run(drive())
    assert cold.source_counts()["computed"] == len(GRID.cells())
    assert cold_tasks > 0  # the patch does see the tasks a cold grid needs
    assert hot.source_counts()["store"] == len(GRID.cells())
    assert hot_tasks == 0
    assert stepped.source_counts()["store"] == len(GRID.cells())
    for a, b in zip(cold.cells, stepped.cells):
        assert a.key == b.key
        assert a.measurement.elapsed_s == b.measurement.elapsed_s


def test_request_span_counts_cells_by_source(machine, tmp_path):
    async def drive():
        async with StudyService(machine, store=tmp_path / "cells") as svc:
            with trace.tracing() as tracer:
                await svc.query(GRID)
                await svc.query(GRID)
            await svc.query(GRID)  # untraced: adds no span
        return tracer

    spans = run(drive()).find("service.request")
    cells = len(GRID.cells())
    assert [
        {k: sp.attrs[k] for k in ("store", "inflight", "computed")} for sp in spans
    ] == [
        {"store": 0, "inflight": 0, "computed": cells},
        {"store": cells, "inflight": 0, "computed": 0},
    ]

