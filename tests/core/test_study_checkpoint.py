"""Study checkpoint/resume against a result store: crash recovery,
bit-identical, and keys that cannot go stale.

The contract: ``Study.run(RunOptions(store=DIR))`` looks every cell up
by its content key; a run that died after K cells leaves K entry files
(an entry is written to a temp file, fsynced and renamed, so it is
either whole or absent); rerunning against the same store serves those K cells and
simulates only the remainder — and the merged result is bit-identical
to an uninterrupted run, including the parent-side MSR counter stream.
Because the key describes the whole measurement (algorithm parameters,
engine settings, verify flag, ...), a changed setup recomputes instead
of replaying stale cells.
"""

import os

import pytest

from repro.algorithms.blocked import BlockedGemm
from repro.algorithms.strassen import StrassenWinograd
from repro.core.resultstore import STORE_VERSION, ResultStore
from repro.core.study import RunOptions, Study, StudyConfig
from repro.machine.specs import dual_socket_haswell
from repro.observability.metrics import registry
from repro.power.msr import PLANE_MSR, MsrFile
from repro.power.planes import Plane
from repro.sim.engine import Engine
from repro.sim.measurement import RunMeasurement
from repro.sim.noise import NoisyEngine
from repro.util.errors import ConfigurationError

CFG = StudyConfig(sizes=(128, 256), threads=(1, 2), execute_max_n=128)


class _BoundStudy:
    """A study bound to the engine its runs use (by default a plain
    engine that deposits into *msr*)."""

    def __init__(self, machine, msr=None, cfg=CFG, engine=None, algorithms=None):
        self.study = Study(machine, algorithms=algorithms, config=cfg)
        self.engine = engine if engine is not None else Engine(machine, msr=msr)

    def run(self, parallel=None, store=None):
        options = RunOptions(engine=self.engine, parallel=parallel, store=store)
        return self.study.run(options).result


def _keys(bound):
    """The study's store keys in serial (table) order."""
    study = bound.study
    return [key for key, _ in study._cell_records(bound.engine, study._cells()).values()]


def _assert_identical(a, b):
    assert list(a.runs) == list(b.runs)
    for key in a.runs:
        x, y = a.runs[key], b.runs[key]
        assert x.elapsed_s == y.elapsed_s, key
        assert x.energy.package == y.energy.package, key
        assert x.energy.pp0 == y.energy.pp0, key
        assert x.energy.dram == y.energy.dram, key
        assert x.trace.segments == y.trace.segments, key


def _assert_same_msr(a, b):
    for plane in (Plane.PACKAGE, Plane.PP0, Plane.DRAM):
        addr = PLANE_MSR[plane]
        assert a.read(addr) == b.read(addr), plane


def _crash(root, keys, cells, torn_tail=False):
    """Leave only the first *cells* entries of a complete store,
    simulating a run killed after that many cells; optionally leave the
    next entry torn (half its bytes) under its final name."""
    store = ResultStore(root)
    for i, key in enumerate(keys[cells:]):
        path = store._path(key)
        if torn_tail and i == 0:
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        else:
            path.unlink()


def _counting(fn):
    snap = registry().snapshot()
    result = fn()
    return result, registry().delta_since(snap)


def test_checkpoint_writes_versioned_journal(machine, tmp_path):
    """The checkpoint is a store: one versioned, checksummed entry per
    cell, each readable back as the measurement the run returned."""
    study = _BoundStudy(machine)
    result = study.run(store=tmp_path / "store")
    store = ResultStore(tmp_path / "store", cache_entries=0)
    keys = _keys(study)
    assert sorted(store.keys()) == sorted(keys)
    assert len(store) == len(result.runs) == 3 * 2 * 2
    for key, coords in zip(keys, result.runs):
        entry = store._path(key).read_text()
        assert f'"version": {STORE_VERSION}' in entry
        assert f'"machine": "{machine.name}"' in entry
        stored = store.get(key)
        assert isinstance(stored, RunMeasurement)
        assert stored.elapsed_s == result.runs[coords].elapsed_s


@pytest.mark.parametrize("torn_tail", [False, True], ids=["clean", "torn"])
@pytest.mark.parametrize("kill_after", [3, 7])
def test_crash_mid_sweep_resume_is_bit_identical(
    machine, tmp_path, kill_after, torn_tail
):
    """Kill the sweep after K cells (optionally with a truncated entry
    file), resume, and require the merged result and MSR stream to
    match an uninterrupted serial run exactly."""
    root = tmp_path / "store"
    msr_full = MsrFile()
    full = _BoundStudy(machine, msr_full).run()

    study = _BoundStudy(machine)
    study.run(store=root)
    _crash(root, _keys(study), kill_after, torn_tail=torn_tail)

    msr_res = MsrFile()
    resumed, delta = _counting(
        lambda: _BoundStudy(machine, msr_res).run(store=root)
    )
    _assert_identical(full, resumed)
    _assert_same_msr(msr_full, msr_res)
    assert delta.get("study.cells_resumed") == kill_after
    assert delta.get("store.corrupt", 0) == int(torn_tail)
    # the resumed run stored the missing cells: the store is complete
    assert len(ResultStore(root)) == len(full.runs)


def test_parallel_resume_is_bit_identical(machine, tmp_path):
    """Resume must compose with the process-pool driver: stored cells
    are not resubmitted, the merge is still serial-order, and the
    parent MSR stream matches the serial run."""
    msr_full = MsrFile()
    full = _BoundStudy(machine, msr_full).run()
    study = _BoundStudy(machine)
    root = tmp_path / "store"
    study.run(store=root)
    _crash(root, _keys(study), 5)
    msr_res = MsrFile()
    resumed, delta = _counting(
        lambda: _BoundStudy(machine, msr_res).run(2, store=root)
    )
    _assert_identical(full, resumed)
    _assert_same_msr(msr_full, msr_res)
    assert delta.get("study.cells_resumed") == 5
    assert len(ResultStore(root)) == len(full.runs)


def test_resume_counts_cells_metric(machine, tmp_path):
    root = tmp_path / "store"
    study = _BoundStudy(machine)
    study.run(store=root)
    _crash(root, _keys(study), 4)
    _, delta = _counting(lambda: _BoundStudy(machine).run(store=root))
    assert delta.get("study.cells_resumed") == 4


def test_resume_from_missing_journal_starts_fresh(machine, tmp_path):
    """First run of a resumable sweep: a store directory that does not
    exist yet is created and receives every cell."""
    root = tmp_path / "not" / "yet" / "there"
    result, delta = _counting(lambda: _BoundStudy(machine).run(store=root))
    assert delta.get("study.cells_resumed", 0) == 0
    assert len(ResultStore(root)) == len(result.runs)


def test_fingerprint_mismatch_rejected(machine, tmp_path):
    """A store written by a different study setup serves nothing: every
    cell is recomputed and matches a fresh run of the new setup."""
    root = tmp_path / "store"
    _BoundStudy(machine).run(store=root)
    other_cfg = StudyConfig(
        sizes=(128, 256), threads=(1, 2), execute_max_n=128, seed=7
    )
    resumed, delta = _counting(
        lambda: _BoundStudy(machine, cfg=other_cfg).run(store=root)
    )
    assert delta.get("study.cells_resumed", 0) == 0
    _assert_identical(_BoundStudy(machine, cfg=other_cfg).run(), resumed)
    assert len(ResultStore(root)) == 2 * len(resumed.runs)


def test_corrupt_mid_file_entry_rejected(machine, tmp_path):
    """A rotted entry in the middle of the sweep is never served: it
    reads as a counted miss, is recomputed bit-identically, and is
    overwritten with a good entry."""
    root = tmp_path / "store"
    study = _BoundStudy(machine)
    full = study.run(store=root)
    key = _keys(study)[3]
    path = ResultStore(root)._path(key)
    path.write_text(path.read_text().replace('"payload": "', '"payload": "AAAA'))
    resumed, delta = _counting(lambda: _BoundStudy(machine).run(store=root))
    _assert_identical(full, resumed)
    assert delta.get("store.corrupt") == 1
    assert delta.get("study.cells_resumed") == len(full.runs) - 1
    assert ResultStore(root).get(key) is not None


def test_store_check_rejects_torn_entry(machine, tmp_path):
    """The strict post-run store check (every key reads back as a
    measurement, ``store.corrupt`` stays 0) passes on a complete store
    and fails on a truncated entry file."""

    def check(root):
        store = ResultStore(root, cache_entries=0)
        got, delta = _counting(lambda: [store.get(k) for k in store.keys()])
        return len(got), all(isinstance(m, RunMeasurement) for m in got), delta

    root = tmp_path / "store"
    study = _BoundStudy(machine)
    study.run(store=root)
    count, ok, delta = check(root)
    assert (count, ok, delta.get("store.corrupt", 0)) == (12, True, 0)
    _crash(root, _keys(study), 11, torn_tail=True)
    count, ok, delta = check(root)
    assert (count, ok, delta.get("store.corrupt")) == (12, False, 1)


def test_put_fsyncs_before_replace(machine, tmp_path, monkeypatch):
    """Durability: every entry is fsynced under its temp name before the
    atomic rename publishes it, so a crash never exposes a torn entry."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    _BoundStudy(machine).run(store=tmp_path / "store")
    assert len(events) == 2 * 12
    for synced, published in zip(events[::2], events[1::2]):
        assert synced[0] == "fsync" and published[0] == "replace"
        assert synced[1] == published[1]


def test_record_is_noop_for_persisted_cells(machine, tmp_path):
    """A resumed run writes only the cells it simulated; served cells
    are not rewritten."""
    root = tmp_path / "store"
    study = _BoundStudy(machine)
    study.run(store=root)
    _crash(root, _keys(study), 5)
    _, delta = _counting(lambda: _BoundStudy(machine).run(store=root))
    assert delta.get("store.puts") == 12 - 5
    _, delta = _counting(lambda: _BoundStudy(machine).run(store=root))
    assert delta.get("store.puts", 0) == 0


def test_wrong_kind_rejected(machine, tmp_path):
    """An entry file that is not a cell result reads as a counted miss
    and is recomputed, never unpickled into the merge."""
    root = tmp_path / "store"
    study = _BoundStudy(machine)
    study.run(store=root)
    key = _keys(study)[0]
    ResultStore(root)._path(key).write_text('{"kind": "something-else"}')
    _, delta = _counting(lambda: _BoundStudy(machine).run(store=root))
    assert delta.get("store.corrupt") == 1
    assert delta.get("study.cells_resumed") == 11


def test_store_path_that_is_a_file_rejected(machine, tmp_path):
    """An old JSONL journal is not a store: refuse it up front."""
    journal = tmp_path / "sweep.jsonl"
    journal.write_text('{"kind": "repro-study-journal"}\n')
    with pytest.raises(ConfigurationError, match="store directories"):
        _BoundStudy(machine).run(store=journal)


def test_store_refuses_noisy_engine(machine, tmp_path):
    """A noisy engine's output depends on how many runs came before, so
    no key describes it: a store-backed study refuses it before the
    sweep (and without creating the store)."""
    root = tmp_path / "store"
    study = _BoundStudy(machine, engine=NoisyEngine(Engine(machine), seed=3))
    with pytest.raises(ConfigurationError, match="NoisyEngine"):
        study.run(store=root)
    assert not root.exists()


def test_fingerprint_covers_engine_and_config(machine):
    """Every knob that changes a measurement changes every cell's key;
    an identically configured study reproduces the keys exactly."""
    base = _keys(_BoundStudy(machine))
    assert _keys(_BoundStudy(machine)) == base
    variants = {
        "seed": _BoundStudy(machine, cfg=StudyConfig(
            sizes=(128, 256), threads=(1, 2), execute_max_n=128, seed=7)),
        "kernel": _BoundStudy(machine, engine=Engine(machine, engine="reference")),
        "segments": _BoundStudy(machine, engine=Engine(machine, max_trace_segments=4)),
        "machine": _BoundStudy(dual_socket_haswell()),
    }
    for name, study in variants.items():
        assert not set(_keys(study)) & set(base), name
    # verify and execute_max_n only move the cells whose verified flag
    # flips (n=128 here); cost-only cells keep their keys.
    for cfg in (
        StudyConfig(sizes=(128, 256), threads=(1, 2), execute_max_n=0),
        StudyConfig(sizes=(128, 256), threads=(1, 2), execute_max_n=128, verify=False),
    ):
        flipped = _keys(_BoundStudy(machine, cfg=cfg))
        assert [a == b for a, b in zip(flipped, base)] == [False, False, True, True] * 3


# ---------------------------------------------------------------------------
# stale replays the key must rule out (both were served before the key
# covered algorithm parameters and engine settings)

STRASSEN_CFG = StudyConfig(
    sizes=(512,), threads=(2,), execute_max_n=0, verify=False,
    baseline="strassen",
)


def test_resumed_cutoff_change_is_recomputed(machine, tmp_path):
    """Checkpointed with cutoff=64, resumed with cutoff=16: the cell is
    the cutoff-16 measurement, not the stored cutoff-64 one."""
    root = tmp_path / "store"

    def run(cutoff, store=None):
        alg = StrassenWinograd(machine, cutoff=cutoff)
        result = _BoundStudy(machine, cfg=STRASSEN_CFG, algorithms=[alg]).run(store=store)
        return result.runs[("strassen", 512, 2)]

    stale = run(64, root)
    fresh = run(16)
    resumed = run(16, root)
    assert resumed.elapsed_s == fresh.elapsed_s == pytest.approx(0.007731, abs=5e-7)
    assert stale.elapsed_s != fresh.elapsed_s


def test_resumed_trace_segment_change_is_recomputed(machine, tmp_path):
    """Checkpointed under Engine(max_trace_segments=4), resumed with the
    default engine: the power trace has the default's 40 segments."""
    root = tmp_path / "store"
    cfg = StudyConfig(sizes=(512,), threads=(2,), execute_max_n=0, verify=False)

    def run(engine):
        study = _BoundStudy(machine, cfg=cfg, engine=engine,
                       algorithms=[BlockedGemm(machine)])
        return study.run(store=root).runs[("openblas", 512, 2)]

    assert len(run(Engine(machine, max_trace_segments=4)).trace.segments) == 4
    assert len(run(Engine(machine)).trace.segments) == 40


def test_verify_rerun_recomputes_unverified_cells(machine, tmp_path):
    """Cells stored by a verify=False run are never served to a
    verify=True run that verifies them: those 6 cells (n=128) are
    simulated and verified again.  The 6 cost-only cells (n=256) are
    the same cell under both runs and are served."""
    root = tmp_path / "store"
    unverified = StudyConfig(
        sizes=(128, 256), threads=(1, 2), execute_max_n=128, verify=False
    )
    _BoundStudy(machine, cfg=unverified).run(store=root)
    _, delta = _counting(lambda: _BoundStudy(machine).run(store=root))
    assert delta.get("study.cells_resumed", 0) == 6
    assert delta.get("store.puts") == 6
