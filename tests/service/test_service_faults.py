"""Concurrency and fault injection for the study service.

The service's promise is *graceful degradation, never a wrong answer*:

* a worker that raises — or dies outright, breaking the process pool —
  must degrade to an in-process recompute of exactly the failed cells,
  with ``service.worker_failures`` / ``service.cells_recomputed``
  counting the damage;
* a client that cancels mid-flight must detach without killing the
  shared computation other clients are awaiting
  (``service.cancelled_waits``);
* a corrupted or truncated store entry must read as a counted miss
  (``store.corrupt``), be recomputed bit-correct, and be atomically
  overwritten so the next query is hot again.

Every test checks both the counter trail *and* that the surviving
answers equal an undisturbed inline computation.
"""

import asyncio
import json
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.resultstore import ResultStore
from repro.observability.metrics import registry
from repro.service import CellSpec, ServiceConfig, StudyRequest, StudyService
from repro.service import executor as executor_mod

REQ = StudyRequest(("openblas", "strassen"), (128,), threads=(1, 2),
                   execute_max_n=0)


def run(coro):
    return asyncio.run(coro)


def _reference_cells(machine):
    """The request computed by an undisturbed inline service."""
    async def drive():
        async with StudyService(machine) as svc:
            return {
                (c.spec.algorithm, c.spec.n, c.spec.threads): c.measurement
                for c in (await svc.query(REQ)).cells
            }
    return run(drive())


def _assert_matches_reference(response, reference):
    for cell in response.cells:
        ref = reference[(cell.spec.algorithm, cell.spec.n, cell.spec.threads)]
        assert ref.elapsed_s == cell.measurement.elapsed_s
        assert ref.energy.package == cell.measurement.energy.package
        assert ref.flops == cell.measurement.flops


# ---------------------------------------------------------------------------
# worker failures (pool path)

# Pool targets must be importable top-level functions (pickled by
# reference; the forked workers re-resolve them from this module).


def _raise_in_worker(payload, traced):
    raise RuntimeError("injected worker failure")


def _die_in_worker(payload, traced):
    os._exit(13)  # simulates a segfaulting/OOM-killed worker


@pytest.mark.parametrize(
    "saboteur,label",
    [(_raise_in_worker, "raise"), (_die_in_worker, "die")],
    ids=["worker-raises", "worker-dies"],
)
def test_worker_failure_mid_batch_degrades_to_recompute(
    machine, tmp_path, monkeypatch, saboteur, label
):
    """Both failure shapes — a cell raising in the pool and the worker
    process dying (BrokenProcessPool poisons the whole batch) — must
    end with every cell recomputed in-process, bit-correct."""
    reference = _reference_cells(machine)
    monkeypatch.setattr(executor_mod, "_run_cell_worker", saboteur)
    snap = registry().snapshot()

    async def drive():
        cfg = ServiceConfig(workers=2)
        async with StudyService(machine, store=tmp_path / label, config=cfg) as svc:
            return await svc.query(REQ)

    response = run(drive())
    delta = registry().delta_since(snap)
    unique = len(REQ.cells())
    assert delta.get("service.worker_failures", 0) == unique
    assert delta.get("service.cells_recomputed", 0) == unique
    assert len(response.cells) == unique
    _assert_matches_reference(response, reference)


class _BreaksOnSecondSubmit:
    """A stand-in pool: the first submit runs inline, every later one
    raises ``BrokenProcessPool`` — a worker died after the first submit
    and broke the pool before the batch was fully queued."""

    def __init__(self):
        self.calls = 0

    def submit(self, fn, *args):
        self.calls += 1
        if self.calls >= 2:
            raise BrokenProcessPool("a worker died during submission")
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_pool_breaking_during_submission_degrades_to_recompute(
    machine, monkeypatch
):
    """A submit that raises is a failed cell like any other: counted
    and recomputed in-process, never an error for the whole batch."""
    reference = _reference_cells(machine)
    pool = _BreaksOnSecondSubmit()
    monkeypatch.setattr(executor_mod.CellExecutor, "_ensure_pool", lambda self: pool)
    specs = REQ.cells()
    snap = registry().snapshot()
    with executor_mod.CellExecutor(machine, workers=2) as ex:
        out = ex.compute(specs)
    delta = registry().delta_since(snap)
    assert pool.calls == len(specs)
    assert delta.get("service.worker_failures", 0) == len(specs) - 1
    assert delta.get("service.cells_recomputed", 0) == len(specs) - 1
    for spec in specs:
        ref = reference[(spec.algorithm, spec.n, spec.threads)]
        assert out[spec].elapsed_s == ref.elapsed_s
        assert out[spec].energy.package == ref.energy.package


def test_pool_rebuilds_after_worker_death(machine, tmp_path, monkeypatch):
    """After a batch breaks the pool, the next batch must get a fresh
    pool and succeed on the normal path (no failure counters)."""
    monkeypatch.setattr(executor_mod, "_run_cell_worker", _die_in_worker)

    async def broken(svc):
        return await svc.query(REQ)

    async def drive():
        cfg = ServiceConfig(workers=2)
        async with StudyService(machine, store=None, config=cfg) as svc:
            await broken(svc)
            monkeypatch.undo()
            snap = registry().snapshot()
            response = await svc.query(REQ)
            return response, registry().delta_since(snap)

    response, delta = run(drive())
    assert delta.get("service.worker_failures", 0) == 0
    assert delta.get("service.cells_recomputed", 0) == 0
    assert len(response.cells) == len(REQ.cells())


# ---------------------------------------------------------------------------
# client cancellation


def test_cancelled_client_does_not_kill_shared_computation(machine, tmp_path):
    """Client A enqueues a cell and is cancelled mid-flight; client B,
    attached to the same in-flight future, must still get the right
    answer, and the store must still be populated."""
    reference = _reference_cells(machine)
    spec = CellSpec("openblas", 128, 1)
    store_root = tmp_path / "cells"
    snap = registry().snapshot()

    async def drive():
        async with StudyService(machine, store=store_root) as svc:
            a = asyncio.create_task(svc.query_cell(spec))
            await asyncio.sleep(0)  # let A enqueue the cell
            b = asyncio.create_task(svc.query_cell(spec))
            await asyncio.sleep(0)  # let B attach in flight
            a.cancel()
            result_b = await b
            with pytest.raises(asyncio.CancelledError):
                await a
            return result_b

    result = run(drive())
    delta = registry().delta_since(snap)
    assert result.source == "inflight"
    ref = reference[(spec.algorithm, spec.n, spec.threads)]
    assert result.measurement.elapsed_s == ref.elapsed_s
    assert result.measurement.energy.package == ref.energy.package
    assert delta.get("service.cancelled_waits", 0) == 1
    assert delta.get("service.cells_computed", 0) == 1
    # The computation outlived its cancelled originator: the store has it.
    assert ResultStore(store_root).get(result.key) is not None


def test_all_clients_cancelled_computation_still_lands_in_store(machine, tmp_path):
    """Even with *every* waiter gone, the shared computation finishes
    and persists (the shield detaches waiters, not work)."""
    spec = CellSpec("strassen", 128, 2)
    store_root = tmp_path / "cells"

    async def drive():
        async with StudyService(machine, store=store_root) as svc:
            a = asyncio.create_task(svc.query_cell(spec))
            await asyncio.sleep(0)
            a.cancel()
            with pytest.raises(asyncio.CancelledError):
                await a
            key = svc.key_for(spec)
        # close() drained the batch; the entry must be durable.
        return key

    key = run(drive())
    assert ResultStore(store_root).get(key) is not None


# ---------------------------------------------------------------------------
# store corruption


def _truncate(path):
    path.write_text(path.read_text()[: len(path.read_text()) // 2])


def _flip_payload_bit(path):
    entry = json.loads(path.read_text())
    payload = entry["payload"]
    entry["payload"] = payload[:10] + ("A" if payload[10] != "A" else "B") + payload[11:]
    path.write_text(json.dumps(entry))


def _wrong_key(path):
    entry = json.loads(path.read_text())
    entry["key"] = "0" * 64
    path.write_text(json.dumps(entry))


def _not_json(path):
    path.write_text("this is not an entry at all")


@pytest.mark.parametrize(
    "corrupt",
    [_truncate, _flip_payload_bit, _wrong_key, _not_json],
    ids=["truncated", "bit-flipped", "key-mismatch", "not-json"],
)
def test_corrupt_store_entry_is_recomputed_never_served(
    machine, tmp_path, corrupt
):
    """Whatever rots on disk, the service recomputes — counted, correct,
    and overwritten so the following query is hot again."""
    reference = _reference_cells(machine)
    store_root = tmp_path / "cells"
    spec = CellSpec("openblas", 128, 2)

    async def query_once():
        # A fresh service per pass: no LRU warmth can mask disk rot.
        async with StudyService(machine, store=store_root) as svc:
            return await svc.query_cell(spec), svc.key_for(spec)

    first, key = run(query_once())
    assert first.source == "computed"

    corrupt(ResultStore(store_root)._path(key))
    snap = registry().snapshot()
    second, _ = run(query_once())
    delta = registry().delta_since(snap)
    assert second.source == "computed"  # the rot was never served
    assert delta.get("store.corrupt", 0) == 1
    ref = reference[(spec.algorithm, spec.n, spec.threads)]
    assert second.measurement.elapsed_s == ref.elapsed_s
    assert second.measurement.energy.package == ref.energy.package

    third, _ = run(query_once())
    assert third.source == "store"  # recompute overwrote the rot
    assert third.measurement.elapsed_s == ref.elapsed_s


def test_missing_store_directory_is_a_plain_miss(machine, tmp_path):
    """Deleting the whole store out from under a running service is just
    misses, not errors."""
    store_root = tmp_path / "cells"
    spec = CellSpec("openblas", 128, 1)

    async def drive():
        async with StudyService(machine, store=store_root) as svc:
            first = await svc.query_cell(spec)
            # Nuke the shard behind the service's back; bypass the LRU
            # with a direct disk-backed read.
            path = ResultStore(store_root)._path(first.key)
            path.unlink()
            assert ResultStore(store_root).get(first.key) is None
            return first

    run(drive())
