"""Differential oracles: agreement on clean runs, disagreement on skew."""

import dataclasses
import math

import pytest

from repro.runtime.scheduler import Schedule, Scheduler
from repro.testing.generators import gen_graph_case, gen_study_config
from repro.testing.oracle import (
    compare_schedules,
    differential_engine_check,
    differential_study_check,
)


def _schedule(seed, engine="fast"):
    case = gen_graph_case(seed)
    return case, Scheduler(
        case.machine, case.threads, case.policy, engine=engine
    ).run(case.arena)


def _clone(sched, records=None, intervals=None, stats=None):
    """A Schedule with selected pieces swapped (it is not a dataclass)."""
    return Schedule(
        sched.graph_name,
        sched.threads,
        sched.records if records is None else records,
        sched.timelines,
        sched.stats if stats is None else stats,
        intervals=list(sched.intervals) if intervals is None else intervals,
    )


def test_engines_agree_on_many_seeds():
    for seed in range(30):
        assert differential_engine_check(gen_graph_case(seed), ("fast",)) == [], seed


def test_schedule_agrees_with_itself():
    _, sched = _schedule(4)
    assert compare_schedules(sched, sched) == []


def test_makespan_skew_is_flagged():
    _, sched = _schedule(4)
    stats = dataclasses.replace(sched.stats, makespan=sched.makespan * 1.01 + 1.0)
    names = {v.invariant for v in compare_schedules(sched, _clone(sched, stats=stats))}
    assert "oracle.makespan" in names


def test_missing_record_is_flagged():
    _, sched = _schedule(4)
    bad = _clone(sched, records=sched.records[:-1])
    names = {v.invariant for v in compare_schedules(sched, bad)}
    assert "oracle.records" in names


def test_record_timing_skew_is_flagged():
    _, sched = _schedule(4)
    r = sched.records[0]
    skewed = dataclasses.replace(r, end=r.end + 1.0)
    bad = _clone(sched, records=[skewed, *sched.records[1:]])
    names = {v.invariant for v in compare_schedules(sched, bad)}
    assert "oracle.timing" in names


def test_record_placement_skew_is_flagged():
    _, sched = _schedule(4)
    r = sched.records[0]
    moved = dataclasses.replace(r, core=r.core + 1)
    bad = _clone(sched, records=[moved, *sched.records[1:]])
    names = {v.invariant for v in compare_schedules(sched, bad)}
    assert "oracle.placement" in names


def test_activity_integral_skew_is_flagged():
    """Doubling one interval's flops changes its row."""
    _, sched = _schedule(4)
    iv = sched.intervals[0]
    fat = dataclasses.replace(iv, flops=iv.flops * 2 + 1e6)
    bad = _clone(sched, intervals=[fat, *sched.intervals[1:]])
    names = {v.invariant for v in compare_schedules(sched, bad)}
    assert "oracle.intervals" in names


def test_one_ulp_skew_is_flagged():
    """The comparison is exact: a row or a record one ulp off differs."""
    _, sched = _schedule(4)
    iv = sched.intervals[-1]
    nudged = dataclasses.replace(iv, bytes_dram=math.nextafter(iv.bytes_dram, math.inf))
    bad = _clone(sched, intervals=[*sched.intervals[:-1], nudged])
    assert {v.invariant for v in compare_schedules(sched, bad)} == {"oracle.intervals"}
    r = sched.records[-1]
    late = dataclasses.replace(r, end=math.nextafter(r.end, math.inf))
    bad = _clone(sched, records=[*sched.records[:-1], late])
    assert {v.invariant for v in compare_schedules(sched, bad)} == {"oracle.timing"}


def test_timeline_skew_is_flagged():
    _, sched = _schedule(4)
    timelines = [dataclasses.replace(tl) for tl in sched.timelines]
    timelines[0].horizon += 1.0
    bad = Schedule(
        sched.graph_name, sched.threads, sched.records, timelines, sched.stats,
        intervals=list(sched.intervals),
    )
    assert {v.invariant for v in compare_schedules(sched, bad)} == {"oracle.timelines"}


def test_stats_skew_is_flagged():
    _, sched = _schedule(4)
    stats = dataclasses.replace(sched.stats, steals=sched.stats.steals + 3)
    names = {v.invariant for v in compare_schedules(sched, _clone(sched, stats=stats))}
    assert "oracle.stats" in names


# ---------------------------------------------------------------------------
# the three-way kernel differential

from repro.runtime.compiledpath import compiled_available

requires_cc = pytest.mark.skipif(
    not compiled_available()[0], reason="compiled engine unavailable"
)


@requires_cc
def test_compiled_check_clean_on_many_seeds():
    for seed in range(20):
        assert differential_engine_check(gen_graph_case(seed)) == [], seed


@requires_cc
def test_compiled_check_flags_a_corrupted_kernel(monkeypatch):
    """A miscompiled kernel must not slip past the oracle: skewing the
    compiled schedule's makespan (as a wrong sweep would) is flagged."""
    from repro.runtime import compiledpath as cp

    real = cp.run_compiled

    def skewed(sched, graph):
        out = real(sched, graph)
        bad_stats = dataclasses.replace(
            out.stats, makespan=out.stats.makespan * 1.01 + 1.0
        )
        return _clone(out, stats=bad_stats)

    monkeypatch.setattr(cp, "run_compiled", skewed)
    names = {
        v.invariant for v in differential_engine_check(gen_graph_case(4))
    }
    assert "oracle.makespan" in names


# ---------------------------------------------------------------------------
# serial vs parallel study


def test_study_differential_clean():
    assert differential_study_check(0, workers=2) == []


def test_study_differential_with_explicit_config():
    cfg = gen_study_config(3)
    assert differential_study_check(3, config=cfg, workers=2) == []
