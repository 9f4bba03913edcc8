"""Differential oracles: agreement on clean runs, disagreement on skew."""

import dataclasses

import numpy as np
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


_COLUMNS = (
    "names", "rec_tid", "rec_core", "rec_start", "rec_end",
    "iv_rows", "busy_core", "busy_start", "busy_end", "stats",
)


def _clone(sched, **swap):
    """A Schedule with selected columns (or its stats) swapped."""
    cols = {name: getattr(sched, name) for name in _COLUMNS}
    return Schedule(sched.graph_name, sched.threads, **{**cols, **swap})


def _nudged(col, row, index=(), by=None):
    """A copy of *col* with one cell moved by *by*, or one ulp up."""
    out = col.copy()
    cell = (row, *index)
    out[cell] = out[cell] + by if by is not None else np.nextafter(out[cell], np.inf)
    return out


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
    assert "oracle.stats" in names


def test_missing_record_is_flagged():
    _, sched = _schedule(4)
    rec = ("rec_tid", "rec_core", "rec_start", "rec_end")
    bad = _clone(sched, **{col: getattr(sched, col)[:-1] for col in rec})
    names = {v.invariant for v in compare_schedules(sched, bad)}
    assert "oracle.records" in names


def test_record_timing_skew_is_flagged():
    _, sched = _schedule(4)
    bad = _clone(sched, rec_end=_nudged(sched.rec_end, 0, by=1.0))
    names = {v.invariant for v in compare_schedules(sched, bad)}
    assert "oracle.timing" in names


def test_record_placement_skew_is_flagged():
    _, sched = _schedule(4)
    bad = _clone(sched, rec_core=_nudged(sched.rec_core, 0, by=1))
    names = {v.invariant for v in compare_schedules(sched, bad)}
    assert "oracle.placement" in names


def test_activity_integral_skew_is_flagged():
    """Doubling one interval's flops changes its row."""
    _, sched = _schedule(4)
    flops = sched.iv_rows[0, 3]
    bad = _clone(sched, iv_rows=_nudged(sched.iv_rows, 0, (3,), by=flops + 1e6))
    names = {v.invariant for v in compare_schedules(sched, bad)}
    assert "oracle.intervals" in names


def test_one_ulp_skew_is_flagged():
    """The comparison is exact: a row or a record one ulp off differs,
    and the violation names the row."""
    _, sched = _schedule(4)
    last = len(sched.iv_rows) - 1
    bad = _clone(sched, iv_rows=_nudged(sched.iv_rows, last, (7,)))
    (v,) = compare_schedules(sched, bad)
    assert v.invariant == "oracle.intervals" and f"iv_rows[{last}]" in v.detail
    bad = _clone(sched, rec_end=_nudged(sched.rec_end, -1))
    assert {v.invariant for v in compare_schedules(sched, bad)} == {"oracle.timing"}


def test_timeline_skew_is_flagged():
    _, sched = _schedule(4)
    bad = _clone(sched, busy_end=_nudged(sched.busy_end, 0, by=1.0))
    assert {v.invariant for v in compare_schedules(sched, bad)} == {"oracle.busy"}


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
    assert "oracle.stats" in names


# ---------------------------------------------------------------------------
# serial vs parallel study


def test_study_differential_clean():
    assert differential_study_check(0, workers=2) == []


def test_study_differential_with_explicit_config():
    cfg = gen_study_config(3)
    assert differential_study_check(3, config=cfg, workers=2) == []
