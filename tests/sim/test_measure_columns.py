"""The measure layer is columnar and keeps the bits of a scalar pass.

``Engine.measure`` evaluates the energy model once over bucket columns
and builds its power trace straight from them.  These tests hold it to
a scalar transcription of the same arithmetic — one ``Activity``, one
``interval_energy`` call and one ``PowerSegment`` per bucket, totals
folded by a float loop — on generated schedules, uncoarsened and
coarsened around the bucket limit, and on the degenerate zero-cost
graph.  They also check that measuring builds no per-interval object.
"""

import numpy as np
import pytest

from repro.machine.energy import Activity, PlaneEnergy
from repro.power import sampling
from repro.power.planes import Plane
from repro.runtime import compiledpath, scheduler
from repro.runtime.cost import TaskCost
from repro.runtime.scheduler import Scheduler
from repro.runtime.openmp import OpenMP
from repro.sim.engine import Engine
from repro.testing.generators import gen_graph_case
from repro.util.errors import ValidationError

PLANES = (Plane.PACKAGE, Plane.PP0, Plane.DRAM)


def _scalar_measure(machine, buckets):
    """The measure arithmetic one bucket at a time, on Python floats."""
    model, dvfs = machine.energy, machine.dvfs_factor
    total = PlaneEnergy.zero()
    flops_total = dram_total = 0.0
    segments = []
    for t0, t1, busy, flops, l1, l2, l3, dram in np.column_stack(buckets).tolist():
        dt = t1 - t0
        e = model.interval_energy(
            Activity(dt, busy * dt, flops, l1, l2, l3, dram), dvfs
        )
        total = total + e
        flops_total += flops
        dram_total += dram
        if dt > 0:
            segments.append(
                sampling.PowerSegment(
                    t0,
                    t1,
                    {
                        Plane.PACKAGE: e.package / dt,
                        Plane.PP0: e.pp0 / dt,
                        Plane.DRAM: e.dram / dt,
                    },
                )
            )
    return total, flops_total, dram_total, segments


def _scalar_buckets(cols, makespan, limit):
    """Row ranges of the greedy coarsening, found by a plain scan."""
    rows = cols.tolist()
    if len(rows) <= limit:
        return [(i, i) for i in range(len(rows))]
    bucket_dt = makespan / limit
    out, i = [], 0
    while i < len(rows):
        j = i
        while j < len(rows) - 1 and rows[j][1] - rows[i][0] < bucket_dt:
            j += 1
        out.append((i, j))
        i = j + 1
    return out


def _check(machine, schedule, limit):
    engine = Engine(machine, max_trace_segments=limit)
    buckets = engine._coarsen(schedule)
    cols = schedule.interval_columns()

    # Bucket bounds are the scan's row ranges; sums keep every integral.
    ranges = _scalar_buckets(cols, schedule.makespan, limit)
    assert buckets[0].tolist() == [cols[i, 0] for i, _ in ranges]
    assert buckets[1].tolist() == [cols[j, 1] for _, j in ranges]
    for c in range(3, 8):
        assert buckets[c].sum() == pytest.approx(cols[:, c].sum(), rel=1e-12)

    m = engine.measure(schedule, label="cell")
    total, flops, dram, segments = _scalar_measure(machine, buckets)
    assert (m.energy.package, m.energy.pp0, m.energy.dram) == (
        total.package,
        total.pp0,
        total.dram,
    )
    assert (m.flops, m.bytes_dram) == (flops, dram)
    assert type(m.flops) is float and type(m.energy.package) is float
    if not segments:  # the zero-length blip
        segments = [sampling.PowerSegment(0.0, 0.0, dict.fromkeys(PLANES, 0.0))]
    assert m.trace.starts.tolist() == [s.t_start for s in segments]
    assert m.trace.ends.tolist() == [s.t_end for s in segments]
    for plane in PLANES:
        assert m.trace.watts[plane].tolist() == [s.watts[plane] for s in segments]
        assert m.trace.energy(plane) == sum(s.energy(plane) for s in segments)
    assert m.trace.segments == segments
    return len(ranges)


@pytest.mark.parametrize("seed", range(6))
def test_columns_match_the_scalar_transcription(seed):
    case = gen_graph_case(seed)
    schedule = Scheduler(case.machine, case.threads, case.policy).run(case.arena)
    k = len(schedule.interval_columns())
    assert _check(case.machine, schedule, max(k, 1) + 512) == k  # uncoarsened
    for limit in (k - 1, k, k + 1):
        if limit >= 1:
            assert _check(case.machine, schedule, limit) <= limit + 1


def test_coarsened_at_a_small_limit_still_matches():
    case = gen_graph_case(11)
    schedule = Scheduler(case.machine, case.threads, case.policy).run(case.arena)
    for limit in (1, 2, 3, 7):
        _check(case.machine, schedule, limit)


def test_zero_cost_graph_measures_as_a_blip(machine):
    omp = OpenMP("zero")
    for i in range(4):
        omp.task(f"t{i}", TaskCost())
    schedule = Scheduler(machine, 2).run(omp.graph)
    assert schedule.makespan == 0
    _check(machine, schedule, 512)
    m = Engine(machine).measure(schedule, label="zero")
    assert len(m.trace) == 1 and m.trace.duration == 0.0
    assert m.trace.starts.tolist() == m.trace.ends.tolist() == [0.0]


def test_nan_flops_column_is_rejected_by_name(monkeypatch):
    case = gen_graph_case(1)
    schedule = Scheduler(case.machine, case.threads, case.policy).run(case.arena)
    cols = schedule.interval_columns().copy()
    cols[len(cols) // 2, 3] = np.nan
    monkeypatch.setattr(scheduler.Schedule, "interval_columns", lambda self: cols)
    with pytest.raises(ValidationError, match="flops"):
        Engine(case.machine).measure(schedule, label="nan")


def _engines():
    out = ["fast"]
    if compiledpath.compiled_available()[0]:
        out.append("compiled")
    return out


@pytest.mark.parametrize("engine", _engines())
@pytest.mark.parametrize("limit", [8, 512])
def test_measure_builds_no_object_per_interval(machine, monkeypatch, engine, limit):
    from repro.algorithms import StrassenWinograd

    graph = StrassenWinograd(machine).build_arena(256, 2).graph
    schedule = Scheduler(machine, 2, engine=engine).run(graph)
    built = {"ActivityInterval": 0, "Activity": 0, "PowerSegment": 0}

    def counting(cls):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", wrapped)

    for cls in (scheduler.ActivityInterval, Activity, sampling.PowerSegment):
        counting(cls)
    m = Engine(machine, max_trace_segments=limit).measure(schedule, label="cell")
    assert len(m.trace) > 2
    # One Activity of columns for the whole schedule, nothing per row.
    assert built == {"ActivityInterval": 0, "Activity": 1, "PowerSegment": 0}
    assert m.trace._segments is None
    assert len(m.trace.segments) == len(m.trace)  # built on first use
