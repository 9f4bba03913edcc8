"""Differential oracles: agreement on clean runs, disagreement on skew."""

import dataclasses

import pytest

from repro.runtime.scheduler import ActivityInterval, Schedule, Scheduler
from repro.testing.generators import gen_graph_case, gen_study_config
from repro.testing.oracle import (
    canonical_intervals,
    compare_schedules,
    differential_compiled_check,
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
        assert differential_engine_check(gen_graph_case(seed)) == [], seed


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
    """Doubling one interval's flops breaks the whole-run integral (and
    usually the per-row comparison too)."""
    _, sched = _schedule(4)
    iv = sched.intervals[0]
    fat = dataclasses.replace(iv, flops=iv.flops * 2 + 1e6)
    bad = _clone(sched, intervals=[fat, *sched.intervals[1:]])
    names = {v.invariant for v in compare_schedules(sched, bad)}
    assert "oracle.integrals" in names


def test_stats_skew_is_flagged():
    _, sched = _schedule(4)
    stats = dataclasses.replace(sched.stats, steals=sched.stats.steals + 3)
    names = {v.invariant for v in compare_schedules(sched, _clone(sched, stats=stats))}
    assert "oracle.stats" in names


# ---------------------------------------------------------------------------
# the compiled-engine differential

from repro.runtime.compiledpath import compiled_available

requires_cc = pytest.mark.skipif(
    not compiled_available()[0], reason="compiled engine unavailable"
)


@requires_cc
def test_compiled_check_clean_on_many_seeds():
    for seed in range(20):
        assert differential_compiled_check(gen_graph_case(seed)) == [], seed


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
        v.invariant for v in differential_compiled_check(gen_graph_case(4))
    }
    assert "oracle.makespan" in names


# ---------------------------------------------------------------------------
# canonicalization


def _iv(t0, t1, **dims):
    base = dict(flops=0.0, bytes_l1=0.0, bytes_l2=0.0, bytes_l3=0.0, bytes_dram=0.0)
    base.update(dims)
    return ActivityInterval(t_start=t0, t_end=t1, busy_cores=1, **base)


def test_canonical_merges_zero_width_slivers():
    ivs = [_iv(0.0, 1.0, flops=5.0), _iv(1.0, 1.0, flops=2.0), _iv(1.0, 2.0)]
    out = canonical_intervals(ivs, makespan=2.0)
    assert len(out) == 2
    assert out[0].flops == pytest.approx(7.0)  # activity preserved
    assert out[0].t_end == pytest.approx(1.0)


def test_canonical_merges_subulp_slivers():
    eps = 1e-15
    ivs = [_iv(0.0, 1.0, flops=5.0), _iv(1.0, 1.0 + eps, flops=2.0), _iv(1.0 + eps, 2.0)]
    out = canonical_intervals(ivs, makespan=2.0)
    assert len(out) == 2
    assert out[0].flops == pytest.approx(7.0)
    assert out[0].t_end == pytest.approx(1.0 + eps)  # extended to sliver end


def test_canonical_keeps_real_intervals():
    ivs = [_iv(0.0, 1.0), _iv(1.0, 1.5), _iv(1.5, 2.0)]
    assert canonical_intervals(ivs, makespan=2.0) == ivs
    assert canonical_intervals([]) == []


def test_canonical_preserves_every_integral():
    _, sched = _schedule(11)  # the seed whose sliver motivated the rule
    dims = ("flops", "bytes_l1", "bytes_l2", "bytes_l3", "bytes_dram")
    out = canonical_intervals(sched.intervals, sched.makespan)
    for d in dims:
        raw = sum(getattr(i, d) for i in sched.intervals)
        canon = sum(getattr(i, d) for i in out)
        assert canon == pytest.approx(raw, rel=1e-12, abs=1e-12), d


# ---------------------------------------------------------------------------
# serial vs parallel study


def test_study_differential_clean():
    assert differential_study_check(0, workers=2) == []


def test_study_differential_with_explicit_config():
    cfg = gen_study_config(3)
    assert differential_study_check(3, config=cfg, workers=2) == []
