"""The study service's core contracts: dedup, batching, store traffic,
bit-identity with the serial study, and the StudyResult bridge."""

import asyncio
import dataclasses

import pytest

from repro.core.resultstore import ResultStore
from repro.core.study import RunOptions, Study, StudyConfig
from repro.observability.metrics import registry
from repro.power.msr import PLANE_MSR, MsrFile
from repro.service import (
    CellSpec,
    ServiceConfig,
    StudyRequest,
    StudyResponse,
    StudyService,
)
from repro.sim.engine import Engine
from repro.util.errors import ConfigurationError, ValidationError


def run(coro):
    return asyncio.run(coro)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cells")


SMALL = dict(algorithms=("openblas", "caps"), sizes=(64,), threads=(1, 2),
             execute_max_n=64)


# ---------------------------------------------------------------------------
# requests and cells


def test_request_cells_are_serial_order_and_execute_bounded():
    req = StudyRequest(("caps", "openblas"), (48, 96), threads=(1, 2),
                       execute_max_n=64)
    cells = req.cells()
    assert [(c.algorithm, c.n, c.threads) for c in cells] == [
        ("caps", 48, 1), ("caps", 48, 2), ("caps", 96, 1), ("caps", 96, 2),
        ("openblas", 48, 1), ("openblas", 48, 2),
        ("openblas", 96, 1), ("openblas", 96, 2),
    ]
    assert [c.execute for c in cells] == [True, True, False, False] * 2
    assert StudyRequest.from_dict(req.to_dict()) == req


def test_request_validation():
    with pytest.raises(ValidationError):
        StudyRequest((), (64,))
    with pytest.raises(ValidationError):
        StudyRequest(("caps",), (0,))
    with pytest.raises(ValidationError):
        CellSpec("caps", 64, 0)


def test_service_config_validation():
    with pytest.raises(ConfigurationError):
        ServiceConfig(workers=-1)
    with pytest.raises(ConfigurationError):
        ServiceConfig(batch_max_cells=0)


# ---------------------------------------------------------------------------
# dedup / store / batching


def test_concurrent_identical_requests_single_flight(machine, store):
    """N identical concurrent requests must compute each unique cell
    exactly once; the rest attach in flight."""
    req = StudyRequest(**SMALL)
    svc_cfg = ServiceConfig()
    snap = registry().snapshot()

    async def drive():
        async with StudyService(machine, store=store, config=svc_cfg) as svc:
            return await asyncio.gather(*(svc.query(req) for _ in range(5)))

    responses = run(drive())
    delta = registry().delta_since(snap)
    unique = len(req.cells())
    assert delta.get("service.cells_computed", 0) == unique
    assert delta.get("service.cells_requested", 0) == unique * 5
    assert delta.get("service.cells_deduped", 0) >= unique * 3
    # Every response carries every cell, whatever its provenance.
    for resp in responses:
        assert len(resp.cells) == unique
        counts = resp.source_counts()
        assert sum(counts.values()) == unique
    # And all five answers are identical objects-by-value.
    first = responses[0]
    for resp in responses[1:]:
        for a, b in zip(first.cells, resp.cells):
            assert a.key == b.key
            assert a.measurement.elapsed_s == b.measurement.elapsed_s


def test_store_hit_across_service_restart(machine, store):
    req = StudyRequest(**SMALL)

    async def cold():
        async with StudyService(machine, store=store) as svc:
            return await svc.query(req)

    async def hot():
        async with StudyService(machine, store=store) as svc:
            return await svc.query(req)

    cold_resp = run(cold())
    assert cold_resp.source_counts()["computed"] == len(req.cells())
    hot_resp = run(hot())
    assert hot_resp.source_counts()["store"] == len(req.cells())
    for a, b in zip(cold_resp.cells, hot_resp.cells):
        assert a.key == b.key
        assert a.measurement.elapsed_s == b.measurement.elapsed_s
        assert a.measurement.energy.package == b.measurement.energy.package


@pytest.mark.parametrize("toolchain", ["auto", "none"])
@pytest.mark.parametrize("engine", [None, "fast"])
def test_store_meta_records_the_resolved_kernel(
    machine, tmp_path, monkeypatch, toolchain, engine
):
    """Each store entry names the kernel its cells were keyed by: the
    one the platform picked for a default service, never a placeholder."""
    import json

    from repro.runtime.scheduler import default_engine

    monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", toolchain)
    expected = engine or default_engine()
    if toolchain == "none":
        assert expected == "fast"
    req = StudyRequest(("openblas",), (64,), threads=(1, 2), execute_max_n=0)

    async def drive():
        config = ServiceConfig(engine=engine)
        async with StudyService(machine, store=tmp_path, config=config) as svc:
            return await svc.query(req)

    run(drive())
    entries = [json.loads(p.read_text()) for p in tmp_path.glob("*/*.json")]
    assert len(entries) == len(req.cells())
    assert {e["meta"]["engine"] for e in entries} == {expected}


def test_storeless_service_recomputes(machine):
    req = StudyRequest(**SMALL)

    async def drive():
        async with StudyService(machine) as svc:
            first = await svc.query(req)
            second = await svc.query(req)
            return first, second

    first, second = run(drive())
    assert first.source_counts()["computed"] == len(req.cells())
    assert second.source_counts()["computed"] == len(req.cells())


def test_batch_window_coalesces_cells(machine, store):
    """Cells trickling in within the window ride one executor batch."""
    snap = registry().snapshot()

    async def drive():
        cfg = ServiceConfig(batch_window_s=0.05)
        async with StudyService(machine, store=store, config=cfg) as svc:
            specs = [CellSpec("openblas", 64, p, execute=True) for p in (1, 2, 3)]
            return await asyncio.gather(*(svc.query_cell(s) for s in specs))

    results = run(drive())
    delta = registry().delta_since(snap)
    assert delta.get("service.batches", 0) == 1
    assert [r.source for r in results] == ["computed"] * 3


def test_batch_max_cells_flushes_early(machine, store):
    snap = registry().snapshot()

    async def drive():
        cfg = ServiceConfig(batch_max_cells=2, batch_window_s=60.0)
        async with StudyService(machine, store=store, config=cfg) as svc:
            specs = [CellSpec("openblas", 64, p, execute=True) for p in (1, 2, 3, 4)]
            return await asyncio.gather(*(svc.query_cell(s) for s in specs))

    results = run(drive())
    delta = registry().delta_since(snap)
    # 4 cells with a 60 s window only complete because max_cells=2
    # forced two flushes (close() drains any remainder).
    assert delta.get("service.batches", 0) == 2
    assert len(results) == 4


def test_pool_workers_bit_identical_to_inline(machine, tmp_path):
    req = StudyRequest(("openblas", "strassen"), (128,), threads=(1, 2),
                      execute_max_n=0)

    async def drive(workers, store):
        cfg = ServiceConfig(workers=workers)
        async with StudyService(machine, store=store, config=cfg) as svc:
            return await svc.query(req)

    inline = run(drive(0, tmp_path / "a"))
    pooled = run(drive(2, tmp_path / "b"))
    for a, b in zip(inline.cells, pooled.cells):
        assert a.key == b.key
        assert a.measurement.elapsed_s == b.measurement.elapsed_s
        assert a.measurement.energy.package == b.measurement.energy.package
        assert a.measurement.flops == b.measurement.flops


def test_closed_service_rejects_queries(machine):
    async def drive():
        svc = StudyService(machine)
        await svc.close()
        with pytest.raises(ConfigurationError):
            await svc.query_cell(CellSpec("caps", 64, 1))

    run(drive())


def test_grids_at_new_seeds_reuse_every_lowering(machine):
    """A lowering carries no operands, so its build is keyed without the
    seed: cold grids at two seeds lower each cell once, and the second
    grid's cells all hit the builds the first one lowered."""
    from repro.algorithms.base import default_build_cache

    cache = default_build_cache()
    cache.clear()
    grid = dict(algorithms=("openblas", "strassen", "caps"), sizes=(64, 128),
                threads=(1, 2), execute_max_n=0)
    cells = len(StudyRequest(**grid).cells())

    async def drive():
        async with StudyService(machine, config=ServiceConfig(workers=0)) as svc:
            for seed in (11, 12):
                response = await svc.query(StudyRequest(**grid, seed=seed))
                assert response.source_counts()["computed"] == cells

    run(drive())
    assert (cache.misses, cache.hits) == (cells, cells)


# ---------------------------------------------------------------------------
# bit-identity with the serial study + result bridge


def test_served_results_bit_identical_to_serial_study(machine, store):
    cfg = StudyConfig(sizes=(48, 64), threads=(1, 2), execute_max_n=64)
    serial_msr = MsrFile()
    serial = Study(machine, config=cfg).run(
        RunOptions(engine=Engine(machine, msr=serial_msr))
    ).result
    req = StudyRequest(
        algorithms=tuple(serial.algorithm_names),
        sizes=cfg.sizes,
        threads=cfg.threads,
        seed=cfg.seed,
        execute_max_n=cfg.execute_max_n,
    )

    async def drive():
        async with StudyService(machine, store=store) as svc:
            return await svc.query(req)

    response = run(drive())
    for cell in response.cells:
        mm = serial.runs[(cell.spec.algorithm, cell.spec.n, cell.spec.threads)]
        assert mm.elapsed_s == cell.measurement.elapsed_s
        assert mm.energy.package == cell.measurement.energy.package
        assert mm.energy.pp0 == cell.measurement.energy.pp0
        assert mm.energy.dram == cell.measurement.energy.dram
        assert mm.flops == cell.measurement.flops
        assert mm.stats.task_count == cell.measurement.stats.task_count

    # Replaying the response's plane energies reproduces the serial MSR
    # counter stream exactly.
    replayed = MsrFile()
    response.replay_msr(replayed)
    for plane, addr in PLANE_MSR.items():
        assert serial_msr.read(addr) == replayed.read(addr), plane

    # And the StudyResult bridge feeds the paper tables unchanged.
    from repro.core import table3_power

    bridged = response.to_study_result(
        machine, display_names=dict(serial.display_names)
    )
    assert set(bridged.runs) == set(serial.runs)
    assert table3_power(bridged).rows  # renders without error


def test_api_facade_serve_and_request(machine, tmp_path):
    from repro.api import Study

    study = Study(machine, sizes=(64,), threads=(1, 2), execute_max_n=64)
    req = study.request()
    assert req.sizes == (64,)
    assert req.threads == (1, 2)
    assert "openblas" in req.algorithms

    async def drive():
        async with study.serve(store=tmp_path / "cells") as svc:
            return await svc.query(req)

    response = run(drive())
    assert len(response.cells) == len(req.cells())
    direct = study.run().result
    for cell in response.cells:
        mm = direct.runs[(cell.spec.algorithm, cell.spec.n, cell.spec.threads)]
        assert mm.elapsed_s == cell.measurement.elapsed_s


def test_key_excludes_machine_name_but_not_machine(machine, store):
    renamed = dataclasses.replace(machine, name="same metal, new sticker")

    async def key_of(m):
        async with StudyService(m, store=store) as svc:
            return svc.key_for(CellSpec("caps", 64, 1))

    assert run(key_of(machine)) == run(key_of(renamed))
