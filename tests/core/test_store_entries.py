"""Stored cell entries hold power traces as columns.

A pickled :class:`~repro.sim.measurement.RunMeasurement` carries its
trace as ``(k,)`` float64 columns, so an entry grows by about 40 bytes
per segment and does not depend on whether anyone built the lazy
``PowerSegment`` views.  Entries written before that layout (store
version 3) are rejected on their version, before any unpickling, and
recomputed.
"""

import json
import pickle

import pytest

from repro.algorithms.registry import make_algorithm
from repro.core import resultstore
from repro.core.resultstore import STORE_VERSION, ResultStore
from repro.core.study import RunOptions, Study, StudyConfig
from repro.observability.metrics import registry
from repro.runtime.scheduler import Scheduler
from repro.sim.engine import ENGINE_VERSION, Engine


@pytest.fixture(scope="module")
def long_trace(machine):
    """A CAPS cell whose coarsened trace has over 400 segments."""
    graph = make_algorithm("caps", machine).build_arena(512, 1).graph
    m = Engine(machine).measure(Scheduler(machine, 1).run(graph), label="caps")
    assert len(m.trace) >= 400
    return m


def test_versions():
    assert STORE_VERSION == 4
    assert ENGINE_VERSION == 2


def test_pickled_measurement_is_about_the_size_of_its_columns(long_trace):
    k = len(long_trace.trace)
    size = len(pickle.dumps(long_trace, protocol=pickle.HIGHEST_PROTOCOL))
    assert size < 48 * k + 4096


def test_touching_segments_does_not_change_the_pickle(long_trace):
    m = pickle.loads(pickle.dumps(long_trace))
    before = pickle.dumps(m, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(m.trace.segments) == len(m.trace)
    assert pickle.dumps(m, protocol=pickle.HIGHEST_PROTOCOL) == before


def test_stored_trace_reads_back_bit_identical(machine, tmp_path, long_trace):
    store = ResultStore(tmp_path, cache_entries=0)
    store.put("ab" * 32, long_trace)
    back = store.get("ab" * 32)
    assert back.trace.segments == long_trace.trace.segments
    for plane, column in long_trace.trace.watts.items():
        assert back.trace.watts[plane].tobytes() == column.tobytes()


def test_version_3_entry_is_rejected_unread_and_recomputed(
    machine, tmp_path, monkeypatch
):
    cfg = StudyConfig(sizes=(128,), threads=(1, 2), execute_max_n=0)

    def run():
        return Study(machine, config=cfg).run(RunOptions(store=root)).result

    root = tmp_path / "store"
    full = run()
    first = Study(machine, config=cfg)
    key, _ = next(iter(first._cell_records(Engine(machine), first._cells()).values()))
    path = ResultStore(root)._path(key)
    entry = json.loads(path.read_text())
    entry["version"] = 3  # complete and checksummed, old schema
    path.write_text(json.dumps(entry))

    def no_unpickling(data):
        raise AssertionError("a version-3 payload was unpickled")

    snap = registry().snapshot()
    with monkeypatch.context() as patch:
        patch.setattr(resultstore.pickle, "loads", no_unpickling)
        assert ResultStore(root, cache_entries=0).get(key) is None
    assert registry().delta_since(snap).get("store.corrupt") == 1

    snap = registry().snapshot()
    resumed = run()
    delta = registry().delta_since(snap)
    assert delta.get("study.cells_resumed") == len(full.runs) - 1
    for coords, m in full.runs.items():
        assert resumed.runs[coords].energy == m.energy
        assert resumed.runs[coords].trace.segments == m.trace.segments
    assert json.loads(path.read_text())["version"] == STORE_VERSION
