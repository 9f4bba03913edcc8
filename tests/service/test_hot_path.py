"""The store-served path: one synchronous pass over a grid, memoized
cell keys and request cells, the provenance every cell reports, and
the encoded replies.

A grid is resolved cell by cell in serial order before anything is
awaited: a store hit is answered on the spot, an in-flight cell attaches
to the running computation, and a cold cell joins the next batch.  Only
the in-flight and cold cells are awaited, so a grid the store answers in
full creates no asyncio task.  Keys are memoized per
:class:`~repro.service.CellSpec`; a memoized key must be exactly the key
:func:`~repro.core.resultstore.cell_key` derives afresh.  A reply is
joined from per-cell fragments the
:class:`~repro.service.cells.ReplyEncoder` remembers; its bytes must be
``json.dumps`` of the reply dict, and a fragment must never outlive the
measurement it describes.
"""

import asyncio
import json

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
from repro.service.cells import ReplyEncoder
from repro.service.server import _handle_request
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
                assert len(service._records) <= 3
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



# ---------------------------------------------------------------------------
# encoded replies


def _dict_query_reply(response) -> bytes:
    """A ``query`` reply encoded as a dict of ``summary()`` dicts."""
    return json.dumps(
        {
            "ok": True,
            "op": "query",
            "request": response.request.to_dict(),
            "sources": response.source_counts(),
            "cells": [cell.summary() for cell in response.cells],
        }
    ).encode()


def _dict_cell_reply(cell) -> bytes:
    return json.dumps({"ok": True, "op": "cell", "cell": cell.summary()}).encode()


def test_replies_equal_json_dumps_of_the_dict_reply(machine, tmp_path):
    """Cold, mixed and hot grids and single cells, each encoded twice
    (the second time from remembered fragments)."""
    stored = CellSpec("openblas", 64, 2)
    inflight = CellSpec("strassen", 64, 1)
    encoder = ReplyEncoder()

    async def drive():
        async with StudyService(machine, store=tmp_path / "cells") as svc:
            first = await svc.query_cell(stored)
            other = asyncio.create_task(svc.query_cell(inflight))
            await asyncio.sleep(0)
            mixed = await svc.query(GRID)
            return first, await other, mixed, await svc.query(GRID)

    first, other, mixed, hot = run(drive())
    assert [c.source for c in mixed.cells] == [
        "computed", "store", "inflight", "computed"
    ]
    assert hot.source_counts()["store"] == len(GRID.cells())
    for _ in range(2):
        for response in (mixed, hot):
            assert encoder.query_reply(response) == _dict_query_reply(response)
        for cell in (first, other, *mixed.cells, *hot.cells):
            assert encoder.cell_reply(cell) == _dict_cell_reply(cell)


def test_handler_replies_are_the_encoded_replies(machine, tmp_path):
    async def drive():
        async with StudyService(machine, store=tmp_path / "cells") as svc:
            encoder = ReplyEncoder(svc.config.cache_entries)
            message = {"op": "query", "request": GRID.to_dict()}
            cold = await _handle_request(svc, message, encoder)
            hot = await _handle_request(svc, message, encoder)
            response = await svc.query(GRID)
            cell = await _handle_request(
                svc,
                {"op": "cell", "cell": {"algorithm": "openblas", "n": 64,
                                        "threads": 2}},
                encoder,
            )
            return cold, hot, response, cell, await svc.query_cell(
                CellSpec("openblas", 64, 2)
            )

    cold, hot, response, cell, spec_cell = run(drive())
    assert json.loads(cold)["sources"]["computed"] == len(GRID.cells())
    assert hot == _dict_query_reply(response)
    assert cell == _dict_cell_reply(spec_cell)


def test_a_replaced_store_entry_is_served_with_its_new_values(machine, tmp_path):
    """The same key answered by a different measurement object: the
    reply carries the new values, never the remembered fragment."""
    spec, donor = CellSpec("openblas", 64, 1), CellSpec("openblas", 64, 2)
    encoder = ReplyEncoder()

    async def drive():
        async with StudyService(machine, store=tmp_path / "cells") as svc:
            await svc.query(GRID)
            before = await svc.query_cell(spec)
            old = encoder.cell_reply(before)
            replacement = (await svc.query_cell(donor)).measurement
            svc.store.put(before.key, replacement)
            return before, old, await svc.query_cell(spec), replacement

    before, old, after, replacement = run(drive())
    assert after.source == "store" and after.key == before.key
    assert after.measurement is replacement
    assert replacement.elapsed_s != before.measurement.elapsed_s
    new = encoder.cell_reply(after)
    assert new != old
    assert new == _dict_cell_reply(after)
    assert json.loads(new)["cell"]["elapsed_s"] == replacement.elapsed_s


def test_a_reread_measurement_gets_a_fresh_fragment(machine, tmp_path):
    """A store without an LRU reads a new object on every hit; each is
    encoded from itself."""
    from repro.core.resultstore import ResultStore

    store = ResultStore(tmp_path / "cells", cache_entries=0)
    encoder = ReplyEncoder()

    async def drive():
        async with StudyService(machine, store=store) as svc:
            await svc.query(GRID)
            return await svc.query(GRID), await svc.query(GRID)

    first, second = run(drive())
    for a, b in zip(first.cells, second.cells):
        assert a.measurement is not b.measurement
        for cell in (a, b):
            assert encoder.cell_reply(cell) == _dict_cell_reply(cell)
            assert encoder._fragments[cell.key][0] is cell.measurement


@pytest.mark.parametrize("entries", [0, 1, 3])
def test_memos_hold_at_most_cache_entries(machine, tmp_path, entries):
    grids = [GRID, StudyRequest(("openblas",), (64,), threads=(1,),
                                execute_max_n=0)]
    encoder = ReplyEncoder(entries)

    async def drive():
        config = ServiceConfig(cache_entries=entries)
        async with StudyService(machine, store=tmp_path / "cells",
                                config=config) as svc:
            for _ in range(2):
                for grid in grids:
                    response = await svc.query(grid)
                    assert encoder.query_reply(response) == _dict_query_reply(
                        response
                    )
                    assert len(svc._requests) <= entries
                    assert len(encoder._fragments) <= entries
            return svc

    svc = run(drive())
    assert len(svc._requests) == min(entries, len(grids))
    assert len(encoder._fragments) == min(entries, len(GRID.cells()))
    if entries:
        # The newest request stays; the oldest is dropped first.
        assert grids[-1] in svc._requests
        assert svc._requests[grids[-1]] == tuple(grids[-1].cells())


def test_a_repeated_grid_reuses_its_cell_specs(machine, tmp_path):
    async def drive():
        async with StudyService(machine, store=tmp_path / "cells") as svc:
            first = await svc.query(GRID)
            again = await svc.query(StudyRequest.from_dict(GRID.to_dict()))
            return first, again

    first, again = run(drive())
    assert [c.spec for c in again.cells] == GRID.cells()
    assert all(a.spec is b.spec for a, b in zip(first.cells, again.cells))


def test_a_hot_query_ticks_each_counter_once_per_cell(machine, tmp_path):
    async def drive():
        async with StudyService(machine, store=tmp_path / "cells") as svc:
            encoder = ReplyEncoder(svc.config.cache_entries)
            message = {"op": "query", "request": GRID.to_dict()}
            await _handle_request(svc, message, encoder)
            await _handle_request(svc, message, encoder)
            snap = registry().snapshot()
            await _handle_request(svc, message, encoder)
            return registry().delta_since(snap)

    delta = run(drive())
    cells = len(GRID.cells())
    assert delta.get("store.hits", 0) == cells
    assert delta.get("store.misses", 0) == 0
    assert delta.get("service.requests", 0) == 1
    assert delta.get("service.cells_requested", 0) == cells
    assert delta.get("service.cells_computed", 0) == 0
