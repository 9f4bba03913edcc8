"""Parallel study driver: bit-identical to the serial run.

``Study.run(RunOptions(parallel=N))`` fans the independent matrix
cells over a process pool, but the merged result must be exactly the
serial run: same key order, same measurements, and — because the parent
replays every cell's plane energies into its own MSR in serial order —
the same RAPL counter stream.
"""

import pytest

from repro.algorithms.base import MatmulAlgorithm
from repro.api import RunOptions, Study
from repro.algorithms.registry import make_algorithm
from repro.core.study import EnergyPerformanceStudy, StudyConfig
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

    def build_arena(self, n, threads, seed=0):
        if (n, threads) == self.crash_cell:
            raise RuntimeError("injected worker crash")
        return self._inner.build_arena(n, threads, seed=seed)


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


def test_parallel_one_is_serial_path(machine):
    """parallel<=1 must not spin up a pool (and must still fill the
    matrix)."""
    cfg = StudyConfig(sizes=(128,), threads=(1, 2), execute_max_n=0)
    result = Study(machine, config=cfg).run(RunOptions(parallel=1)).result
    assert len(result.runs) == 3 * 1 * 2


# ---- shared-memory transport ------------------------------------------


def _leaked_segments():
    import glob

    return set(glob.glob("/dev/shm/repro-arena-*"))


def test_all_transports_bit_identical(machine):
    """serial == parallel-pickle == parallel-shm, measurements and MSR
    counter stream alike.  Sizes above execute_max_n force the
    pre-lowered arena path, so the shm run really ships descriptors."""
    cfg = StudyConfig(sizes=(128, 512), threads=(1, 2), execute_max_n=128)
    before = _leaked_segments()

    def run(parallel, transport=None):
        msr = MsrFile()
        study = EnergyPerformanceStudy(
            machine, config=cfg, _engine=Engine(machine, msr=msr)
        )
        return study._run(parallel, transport=transport), msr

    ser, msr_ser = run(None)
    shm, msr_shm = run(2, "shm")
    pkl, msr_pkl = run(2, "pickle")
    assert list(ser.runs) == list(shm.runs) == list(pkl.runs)
    for key in ser.runs:
        a, b, c = ser.runs[key], shm.runs[key], pkl.runs[key]
        assert a.elapsed_s == b.elapsed_s == c.elapsed_s, key
        assert a.energy.package == b.energy.package == c.energy.package, key
        assert a.energy.pp0 == b.energy.pp0 == c.energy.pp0, key
        assert a.energy.dram == b.energy.dram == c.energy.dram, key
    for plane in (Plane.PACKAGE, Plane.PP0, Plane.DRAM):
        addr = PLANE_MSR[plane]
        assert msr_ser.read(addr) == msr_shm.read(addr) == msr_pkl.read(addr)
    assert _leaked_segments() == before


def test_shm_run_counts_pickle_bytes_avoided(machine):
    """Every descriptor-shipped cell credits its arena's column bytes
    to the study.pickle_bytes_avoided counter."""
    from repro.observability.metrics import registry

    cfg = StudyConfig(sizes=(512,), threads=(1, 2), execute_max_n=0, verify=False)
    study = EnergyPerformanceStudy(
        machine, config=cfg, _engine=Engine(machine, engine="fast")
    )
    snap = registry().snapshot()
    study._run(2, transport="shm")
    delta = registry().delta_since(snap)
    assert delta.get("study.pickle_bytes_avoided", 0) > 0
    assert delta.get("shm.bytes_mapped", 0) > 0


def test_transport_env_var_is_honoured(machine, monkeypatch):
    """REPRO_STUDY_TRANSPORT steers entry points that don't plumb the
    knob (the verify harness's study differential in CI)."""
    from repro.core.study import _resolve_transport

    monkeypatch.setenv("REPRO_STUDY_TRANSPORT", "pickle")
    assert _resolve_transport(None) == "pickle"
    assert _resolve_transport("shm") == "shm"  # explicit arg wins
    monkeypatch.setenv("REPRO_STUDY_TRANSPORT", "shm")
    assert _resolve_transport(None) == "shm"
    monkeypatch.delenv("REPRO_STUDY_TRANSPORT")
    assert _resolve_transport(None) in ("shm", "pickle")  # auto


def test_worker_crash_under_shm_leaves_no_segments(machine):
    """A crashing cell mid-sweep must not strand /dev/shm segments —
    the pool closes in the driver's finally."""
    before = _leaked_segments()
    cfg = StudyConfig(
        sizes=(64, 128),
        threads=(1, 2),
        execute_max_n=0,
        verify=False,
        baseline="crasher",
    )
    study = EnergyPerformanceStudy(machine, [_CrashingAlg(machine)], config=cfg)
    with pytest.raises(StudyCellError):
        study._run(2, transport="shm")
    assert _leaked_segments() == before


def test_interrupt_mid_prebuild_leaves_no_segments(machine, monkeypatch):
    """KeyboardInterrupt while the parent is still laying arenas into
    the pool (first segments already created) must reach the driver's
    finally and unlink everything."""
    before = _leaked_segments()
    cfg = StudyConfig(sizes=(512,), threads=(1, 2), execute_max_n=0, verify=False)
    study = EnergyPerformanceStudy(
        machine, config=cfg, _engine=Engine(machine, engine="fast")
    )
    real_prebuild = EnergyPerformanceStudy._prebuild
    calls = {"n": 0}

    def interrupting(self, alg, n, p):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise KeyboardInterrupt
        return real_prebuild(self, alg, n, p)

    monkeypatch.setattr(EnergyPerformanceStudy, "_prebuild", interrupting)
    with pytest.raises(KeyboardInterrupt):
        study._run(2, transport="shm")
    assert calls["n"] >= 3
    assert _leaked_segments() == before
