"""Chrome trace export."""

import json

import pytest

from repro.reporting.tracefile import schedule_to_trace_events, write_chrome_trace
from repro.runtime.cost import TaskCost
from repro.runtime.openmp import OpenMP
from repro.runtime.scheduler import Scheduler
from repro.sim import Engine


@pytest.fixture()
def schedule(machine):
    omp = OpenMP("demo")
    a = omp.task("work-a", TaskCost(flops=1e9))
    b = omp.task("work-b", TaskCost(flops=2e9), deps=[a])
    omp.taskwait([b], "sync")
    return Scheduler(machine, threads=2).run(omp.graph)


def test_events_cover_tasks(schedule):
    events = schedule_to_trace_events(schedule)
    slices = [e for e in events if e.get("ph") == "X"]
    assert {e["name"] for e in slices} == {"work-a", "work-b"}


def test_zero_cost_tasks_are_instants(schedule):
    events = schedule_to_trace_events(schedule)
    instants = [e for e in events if e.get("ph") == "i"]
    assert any(e["name"] == "sync" for e in instants)


def test_metadata_rows_per_core(schedule):
    events = schedule_to_trace_events(schedule)
    names = [e for e in events if e.get("ph") == "M" and e["name"] == "thread_name"]
    assert len(names) == 2


def test_timestamps_microseconds(schedule):
    events = schedule_to_trace_events(schedule)
    a = next(e for e in events if e.get("name") == "work-a")
    b = next(e for e in events if e.get("name") == "work-b")
    # b starts when a ends (dependency); durations are positive us.
    assert b["ts"] == pytest.approx(a["ts"] + a["dur"], rel=1e-6)
    assert a["dur"] > 0


def test_power_counter_track(machine, schedule):
    meas = Engine(machine).measure(schedule, label="x")
    events = schedule_to_trace_events(schedule, power=meas.trace, power_samples=8)
    counters = [e for e in events if e.get("ph") == "C"]
    assert len(counters) >= 4
    assert all("W" in e["args"] for e in counters)


def test_write_file_valid_json(schedule, tmp_path):
    path = write_chrome_trace(schedule, tmp_path / "trace.json")
    data = json.loads(path.read_text())
    assert "traceEvents" in data
    assert len(data["traceEvents"]) >= 4
