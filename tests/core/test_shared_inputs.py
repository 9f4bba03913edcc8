"""Numerics inputs shared across a run's verified cells.

In-process study cells (``repro.core.study._run_cells``) and
``ExperimentProtocol.run(execute=True)`` give their verified checks one
:class:`~repro.linalg.verify.NumericsInputs`: each ``(n, seed)``'s
operands are drawn and its reference product ``a @ b`` computed once,
and released as soon as the last verified cell of that ``(n, seed)``
has run.  The reports are the bits a per-cell draw gives
(``tests/algorithms/test_numerics_golden.py`` pins them), pool cells
keep their own draw, and nothing outlives the run.  Every test starts
with an empty report memo (the autouse fixture of ``tests/conftest.py``).
"""

import asyncio
import weakref

import numpy as np
import pytest

import repro.algorithms.program as program
import repro.linalg.verify as verify_mod
from repro.algorithms.base import numerics_memo
from repro.algorithms.registry import make_algorithm, paper_algorithms
from repro.api import RunOptions, Study
from repro.core import study as study_mod
from repro.core.protocol import ExperimentProtocol
from repro.linalg.verify import NumericsInputs
from repro.observability import trace
from repro.observability.metrics import registry
from repro.runtime.scheduler import Scheduler
from repro.service import ServiceConfig, StudyRequest, StudyService
from repro.util.errors import ValidationError

SIZES = (128, 256)
THREADS = (1, 2, 3, 4)


def _count_draws(monkeypatch) -> list:
    """Record the ``(n, seed)`` of every operand matrix drawn."""
    draws = []
    real = verify_mod.random_matrix

    def counting(n, seed=0, **kwargs):
        draws.append((n, seed))
        return real(n, seed=seed, **kwargs)

    monkeypatch.setattr(verify_mod, "random_matrix", counting)
    return draws


def _products_since(before) -> float:
    return registry().delta_since(before).get("numerics.reference_products", 0)


def test_verified_study_draws_once_per_size(machine, monkeypatch):
    """24 verified cells, 10 report-memo misses, 2 ``(n, seed)``: one
    operand pair and one reference product per size."""
    draws = _count_draws(monkeypatch)
    before = registry().snapshot()
    with trace.tracing() as tr:
        Study(machine, sizes=SIZES, threads=THREADS, seed=7).run()
    assert _products_since(before) == len(SIZES)
    assert sorted(draws) == [(n, s) for n in SIZES for s in (7, 8)]
    misses = [sp for sp in tr.find("numerics") if sp.attrs["memo"] == "miss"]
    assert len(misses) == 10
    assert {sp.attrs["inputs"] for sp in misses} == {"shared"}
    hits = [sp for sp in tr.find("numerics") if sp.attrs["memo"] == "hit"]
    assert hits and all("inputs" not in sp.attrs for sp in hits)


def test_shared_arrays_die_after_their_last_verified_cell(machine, monkeypatch):
    """Weakrefs to a size's operands and reference product are dead by
    the start of the cell after its last verified cell, and nothing
    shared is left once ``Study.run`` returns."""
    refs: dict[int, list] = {n: [] for n in SIZES}
    real_get = NumericsInputs.get

    def get(self, n, seed):
        entry = real_get(self, n, seed)
        refs[n] += [weakref.ref(entry.a), weakref.ref(entry.b)]
        return entry

    real_reference = verify_mod.ProblemInputs.reference

    def reference(self):
        ref = real_reference(self)
        refs[self.a.shape[0]].append(weakref.ref(ref))
        return ref

    monkeypatch.setattr(NumericsInputs, "get", get)
    monkeypatch.setattr(verify_mod.ProblemInputs, "reference", reference)
    # Serial order: openblas, strassen, caps; sizes inside, threads innermost.
    cells = [(a, n, p) for a in range(3) for n in SIZES for p in THREADS]
    last = {n: max(i for i, (_, m, _) in enumerate(cells) if m == n) for n in SIZES}
    seen = []
    real_run_cell = study_mod._run_cell

    def run_cell(payload, inputs=None):
        step = len(seen)
        for n, last_step in last.items():
            alive = [r for r in refs[n] if r() is not None]
            if step > last_step:
                assert not alive, (n, step)
        seen.append(payload[2])
        return real_run_cell(payload, inputs)

    monkeypatch.setattr(study_mod, "_run_cell", run_cell)
    Study(machine, sizes=SIZES, threads=THREADS).run()
    assert seen == [n for _, n, _ in cells]
    for n in SIZES:
        assert len(refs[n]) >= 3  # a, b and the reference product
        assert all(r() is None for r in refs[n]), n


def test_a_verified_cell_frees_its_schedule_before_the_program_runs(
    machine, monkeypatch
):
    """The numerics check reads only the start order, so the schedule's
    interval rows (3 MB at CAPS n=1024) are gone by the time the program
    runs, the memory peak of a verified cell."""
    from repro.algorithms.base import MatmulAlgorithm
    from repro.sim.engine import Engine

    schedules, alive = [], []
    real_simulate = Engine.simulate

    def simulate(self, *args, **kwargs):
        measurement, schedule = real_simulate(self, *args, **kwargs)
        schedules.append(weakref.ref(schedule.iv_rows))
        return measurement, schedule

    real_run = MatmulAlgorithm._run_program

    def run_program(self, *args, **kwargs):
        alive.append(schedules[-1]() is not None)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "simulate", simulate)
    monkeypatch.setattr(MatmulAlgorithm, "_run_program", run_program)
    Study(machine, algorithms=[make_algorithm("caps", machine)], baseline="caps",
          sizes=(128,), threads=(1, 2)).run()
    assert alive == [False]  # one miss: CAPS stamps one program for p = 1, 2


def test_pool_cells_draw_their_own_inputs_and_equal_the_serial_study(
    machine, monkeypatch
):
    """A cell computed through a pool has no scope: it draws its own
    operands and product (``inputs="drawn"``), and its report is the
    same bits as the shared path's."""
    import concurrent.futures

    class InlinePool:
        """A pool stand-in that runs each submitted call at once."""

        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    def memo_after(options):
        numerics_memo().clear()
        before = registry().snapshot()
        run = Study(machine, sizes=SIZES, threads=THREADS).run(options)
        misses = registry().delta_since(before)["numerics.memo_misses"]
        return run.result, numerics_memo().entries(), _products_since(before), misses

    serial, shared, serial_products, _ = memo_after(RunOptions())
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    pooled, drawn, pooled_products, misses = memo_after(RunOptions(parallel=2))
    assert drawn == shared
    assert (serial_products, pooled_products) == (len(SIZES), misses) == (2, 10)
    for key in serial.runs:
        assert serial.runs[key].elapsed_s == pooled.runs[key].elapsed_s, key

    numerics_memo().clear()
    alg = make_algorithm("caps", machine)
    arena = alg.build_cached(128, 2).graph
    with trace.tracing() as tr:
        alg.check_numerics(128, 2, Scheduler(machine, 2).run(arena), arena)
    (span,) = tr.find("numerics")
    assert (span.attrs["memo"], span.attrs["inputs"]) == ("miss", "drawn")


def test_parallel_verified_study_equals_the_serial_one(machine):
    serial = Study(machine, sizes=SIZES, threads=(1, 2)).run().result
    numerics_memo().clear()
    par = Study(machine, sizes=SIZES, threads=(1, 2)).run(RunOptions(parallel=2)).result
    assert list(serial.runs) == list(par.runs)
    for key, a in serial.runs.items():
        b = par.runs[key]
        assert (a.elapsed_s, a.energy.package, a.energy.pp0, a.energy.dram) == (
            b.elapsed_s, b.energy.package, b.energy.pp0, b.energy.dram
        ), key


def test_a_perturbed_product_fails_through_the_shared_inputs(machine, monkeypatch):
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
    inputs = NumericsInputs()
    with pytest.raises(ValidationError, match="exceeds bound"):
        alg.check_numerics(128, 2, schedule, arena, inputs=inputs)
    entry = inputs.get(128, 0)
    assert np.array_equal(entry.reference(), entry.a @ entry.b)
    numerics_memo().clear()
    with pytest.raises(ValidationError, match="exceeds bound"):
        Study(machine, sizes=(128,), threads=(1, 2)).run()


def test_protocol_checks_share_inputs_and_release_them(machine, monkeypatch):
    draws = _count_draws(monkeypatch)
    live = []
    real_done = NumericsInputs.done

    def done(self, step):
        real_done(self, step)
        live.append(len(self))

    monkeypatch.setattr(NumericsInputs, "done", done)
    protocol = ExperimentProtocol(machine, repetitions=1, quiesce_s=0.0)
    before = registry().snapshot()
    result = protocol.run(
        paper_algorithms(machine), SIZES, (1, 2), seed=3, execute=True
    )
    assert len(result.trials) == 3 * len(SIZES) * 2
    assert _products_since(before) == len(SIZES)
    assert sorted(draws) == [(n, s) for n in SIZES for s in (3, 4)]
    # Entries live after each configuration, in (alg, n, p) order: each
    # size is drawn at its first check and released after the last
    # algorithm's last thread count of it.
    assert live == [1, 1, 2, 2, 2, 2, 2, 2, 2, 1, 1, 0]


def test_cold_service_grid_shares_inputs_within_its_batch(machine):
    req = StudyRequest(("openblas", "strassen", "caps"), SIZES, threads=THREADS,
                       execute_max_n=max(SIZES))
    before = registry().snapshot()

    async def drive():
        async with StudyService(machine, config=ServiceConfig(workers=0)) as svc:
            return await svc.query(req)

    response = asyncio.run(drive())
    delta = registry().delta_since(before)
    assert response.source_counts()["computed"] == len(req.cells())
    batches = delta.get("service.batches", 0)
    assert batches >= 1
    assert _products_since(before) == len(SIZES) * batches == len(SIZES)
