"""Parallel study driver: bit-identical to the serial run.

``Study.run(RunOptions(parallel=N))`` fans the independent matrix
cells over a process pool, but the merged result must be exactly the
serial run: same key order, same measurements, and — because the parent
replays every cell's plane energies into its own MSR in serial order —
the same RAPL counter stream.  That holds when workers fail too: a cell
whose worker raises or dies is recomputed in-process (the fault policy
the study service shares), and only a cell that also fails in-process
aborts the run.
"""

import os
import pickle

import pytest

from repro.algorithms.base import MatmulAlgorithm
from repro.api import RunOptions, Study
from repro.algorithms.registry import make_algorithm
from repro.core import study as study_mod
from repro.core.resultstore import ResultStore
from repro.core.study import StudyConfig
from repro.observability.metrics import registry
from repro.power.msr import PLANE_MSR, MsrFile
from repro.power.planes import Plane
from repro.sim.engine import Engine
from repro.util.errors import StudyCellError


@pytest.fixture(scope="module")
def pair(machine):
    """(serial result + its MsrFile, parallel result + its MsrFile)."""
    cfg = StudyConfig(sizes=(128, 256), threads=(1, 2), execute_max_n=128)

    def run(parallel):
        msr = MsrFile()
        options = RunOptions(engine=Engine(machine, msr=msr), parallel=parallel)
        return Study(machine, config=cfg).run(options).result, msr

    return run(None), run(2)


def test_same_cells_in_same_order(pair):
    (ser, _), (par, _) = pair
    assert list(ser.runs) == list(par.runs)


def test_measurements_identical(pair):
    """Worker processes redo the exact deterministic simulation, so
    every cell's timing and energy must match the serial run bit for
    bit (no tolerance)."""
    (ser, _), (par, _) = pair
    for key in ser.runs:
        a, b = ser.runs[key], par.runs[key]
        assert a.elapsed_s == b.elapsed_s, key
        assert a.energy.package == b.energy.package, key
        assert a.energy.pp0 == b.energy.pp0, key
        assert a.energy.dram == b.energy.dram, key


def test_msr_counter_stream_replayed(pair):
    """The parent deposits each cell's plane energies into its own MSR
    after the pool drains, in serial order — an external RAPL reader
    sees identical final counters either way."""
    (_, msr_ser), (_, msr_par) = pair
    for plane in (Plane.PACKAGE, Plane.PP0, Plane.DRAM):
        addr = PLANE_MSR[plane]
        assert msr_ser.read(addr) == msr_par.read(addr), plane


class _CrashingAlg(MatmulAlgorithm):
    """Delegates to the blocked algorithm but blows up on one cell.

    Module-level so the fork-based process pool can ship it to workers.
    """

    name = "crasher"
    display_name = "Crasher"

    def __init__(self, machine, crash_cell=(128, 2)):
        super().__init__(machine)
        self.crash_cell = crash_cell
        self._inner = make_algorithm("openblas", machine)

    def flop_count(self, n):
        return self._inner.flop_count(n)

    def build_arena(self, n, threads):
        if (n, threads) == self.crash_cell:
            raise RuntimeError("injected worker crash")
        return self._inner.build_arena(n, threads)


def test_worker_crash_surfaces_cell_coordinates(machine):
    """A crashing worker must re-raise as StudyCellError carrying the
    failing cell's (algorithm, size, threads) — not a bare pool
    traceback."""
    cfg = StudyConfig(
        sizes=(64, 128),
        threads=(1, 2),
        execute_max_n=0,
        verify=False,
        baseline="crasher",
    )
    study = Study(machine, algorithms=[_CrashingAlg(machine)], config=cfg)
    with pytest.raises(StudyCellError) as exc_info:
        study.run(RunOptions(parallel=2))
    err = exc_info.value
    assert (err.algorithm, err.size, err.threads) == ("crasher", 128, 2)
    assert "size=128" in str(err) and "threads=2" in str(err)
    assert "injected worker crash" in str(err)
    assert isinstance(err.__cause__, RuntimeError)


def test_worker_crash_message_names_first_failing_cell(machine):
    """The error names the failing cell even when it is the very first
    submitted — merge order is serial (table) order, deterministic
    regardless of pool completion timing."""
    cfg = StudyConfig(
        sizes=(64, 128),
        threads=(1, 2),
        execute_max_n=0,
        verify=False,
        baseline="crasher",
    )
    alg = _CrashingAlg(machine, crash_cell=(64, 1))  # the very first cell
    study = Study(machine, algorithms=[alg], config=cfg)
    with pytest.raises(StudyCellError) as exc_info:
        study.run(RunOptions(parallel=2))
    assert (exc_info.value.size, exc_info.value.threads) == (64, 1)


# Pool targets must be importable top-level functions (pickled by
# reference; the workers re-resolve them from this module).


def _raise_in_worker(payload, traced):
    raise RuntimeError("injected worker failure")


def _die_in_worker(payload, traced):
    os._exit(13)  # simulates a segfaulting/OOM-killed worker


_FAULT_CFG = StudyConfig(sizes=(128, 256), threads=(1, 2), execute_max_n=128)


def _msr_run(machine, parallel=None, store=None):
    """One run of the fault study on an engine with its own MSR."""
    msr = MsrFile()
    options = RunOptions(engine=Engine(machine, msr=msr), parallel=parallel, store=store)
    return Study(machine, config=_FAULT_CFG).run(options).result, msr


def _assert_same_study(a, msr_a, b, msr_b):
    assert list(a.runs) == list(b.runs)
    for key in a.runs:
        assert pickle.dumps(a.runs[key]) == pickle.dumps(b.runs[key]), key
    for plane in (Plane.PACKAGE, Plane.PP0, Plane.DRAM):
        addr = PLANE_MSR[plane]
        assert msr_a.read(addr) == msr_b.read(addr), plane


@pytest.mark.parametrize("stored", [False, True], ids=["no-store", "store"])
@pytest.mark.parametrize(
    "saboteur", [_raise_in_worker, _die_in_worker],
    ids=["worker-raises", "worker-dies"],
)
def test_failed_workers_degrade_to_the_serial_result(
    machine, tmp_path, monkeypatch, saboteur, stored
):
    """Every pool-side cell fails; each is recomputed in-process, so the
    parallel study still equals the serial one, measurements and MSR
    counter stream alike, with one failure counted per cell — and a
    store the study checkpoints into ends up complete."""
    serial, msr = _msr_run(machine)
    monkeypatch.setattr(study_mod, "_run_cell_worker", saboteur)
    snap = registry().snapshot()
    parallel, msr_par = _msr_run(machine, 2, tmp_path if stored else None)
    delta = registry().delta_since(snap)
    cells = len(serial.runs)
    assert delta.get("study.worker_failures", 0) == cells
    assert delta.get("study.cells_recomputed", 0) == cells
    _assert_same_study(serial, msr, parallel, msr_par)
    if stored:
        store = ResultStore(tmp_path)
        study = Study(machine, config=_FAULT_CFG)
        records = study._cell_records(Engine(machine), study._cells())
        assert len(store) == cells
        for coords, (key, _) in records.items():
            assert pickle.dumps(store.get(key)) == pickle.dumps(serial.runs[coords])


def test_parallel_one_is_serial_path(machine, monkeypatch):
    """parallel<=1 must not spin up a pool (and must still fill the
    matrix)."""
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("parallel=1 started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg = StudyConfig(sizes=(128,), threads=(1, 2), execute_max_n=0)
    result = Study(machine, config=cfg).run(RunOptions(parallel=1)).result
    assert len(result.runs) == 3 * 1 * 2


# ---- workers lower their own cells ------------------------------------


def test_serial_and_parallel_bit_identical(machine):
    """serial == parallel=2, measurements and MSR counter stream alike,
    over verified (128) and cost-only (512) cells."""
    cfg = StudyConfig(sizes=(128, 512), threads=(1, 2), execute_max_n=128)

    def run(parallel):
        msr = MsrFile()
        options = RunOptions(engine=Engine(machine, msr=msr), parallel=parallel)
        return Study(machine, config=cfg).run(options).result, msr

    ser, msr_ser = run(None)
    par, msr_par = run(2)
    assert list(ser.runs) == list(par.runs)
    for key in ser.runs:
        a, b = ser.runs[key], par.runs[key]
        assert a.elapsed_s == b.elapsed_s, key
        assert a.energy.package == b.energy.package, key
        assert a.energy.pp0 == b.energy.pp0, key
        assert a.energy.dram == b.energy.dram, key
    for plane in (Plane.PACKAGE, Plane.PP0, Plane.DRAM):
        addr = PLANE_MSR[plane]
        assert msr_ser.read(addr) == msr_par.read(addr), plane


def test_parallel_payload_carries_no_arena_and_is_constant_in_n(
    machine, monkeypatch
):
    """What crosses the pipe is ``(engine, alg, n, p, seed, verified)``:
    no lowered graph, so a cell's payload is as small at n=4096 as at
    n=512 (the n=4096 arena alone pickles to megabytes)."""
    import concurrent.futures

    sent = []

    class PicklingExecutor:
        """In-process pool: records each pickled payload and runs the
        call on the unpickled copy, as a worker would."""

        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, payload, *args):
            sent.append(pickle.dumps(payload))
            future = concurrent.futures.Future()
            future.set_result(fn(pickle.loads(sent[-1]), *args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingExecutor)
    cfg = StudyConfig(
        sizes=(512, 4096),
        threads=(1,),
        execute_max_n=0,
        verify=False,
        baseline="strassen",
    )
    algs = [make_algorithm("strassen", machine)]
    Study(machine, algorithms=algs, config=cfg).run(RunOptions(parallel=2))
    small, big = (len(blob) for blob in sent)
    assert small == big
    for blob in sent:
        engine, alg, n, p, seed, verified = pickle.loads(blob)
        assert isinstance(engine, Engine) and isinstance(alg, MatmulAlgorithm)
        assert (p, seed, verified) == (1, cfg.seed, False)
    arena = algs[0].build_cached(4096, 1).graph
    assert len(pickle.dumps(arena)) > 100 * big


def test_serial_crash_raises_the_same_cell_error_as_parallel(machine):
    """A cell that fails in-process names its cell too: serial and
    ``parallel=2`` runs raise the same exception type and message."""
    cfg = StudyConfig(
        sizes=(64, 128),
        threads=(1, 2),
        execute_max_n=0,
        verify=False,
        baseline="crasher",
    )
    errors = []
    for options in (RunOptions(), RunOptions(parallel=2)):
        study = Study(machine, algorithms=[_CrashingAlg(machine)], config=cfg)
        with pytest.raises(StudyCellError) as exc_info:
            study.run(options)
        errors.append(exc_info.value)
    serial, parallel = errors
    assert type(serial) is type(parallel)
    assert str(serial) == str(parallel)
    assert (serial.algorithm, serial.size, serial.threads) == ("crasher", 128, 2)
    assert isinstance(serial.__cause__, RuntimeError)
