"""The ``network_sim`` verify family: generator, invariant, oracle."""

import dataclasses
import math

import numpy as np

from repro.distributed import netsim, simulate
from repro.runtime.rankevents import RankEventProgram
from repro.testing import (
    check_network_bounds,
    compare_event_programs,
    differential_network_check,
    gen_network_case,
    run_verify,
)


def names(violations):
    return {v.invariant for v in violations}


# ---- generator ----------------------------------------------------------


def test_generator_is_deterministic():
    a, b = gen_network_case(7), gen_network_case(7)
    assert a == b
    assert a.describe() == b.describe()
    assert gen_network_case(8) != a


def test_generated_cases_are_buildable():
    for seed in range(30):
        case = gen_network_case(seed)
        assert case.algorithm in ("summa", "summa25d", "summa15d", "caps-dist")
        r = simulate(case.cluster, case.algorithm, case.n, case.ranks, case.config)
        assert r.n_events > 0
        assert math.isfinite(r.total_time_s)


def test_describe_names_the_knobs():
    d = gen_network_case(3).describe()
    for key in ("topology=", "protocol=", "chunks=", "c="):
        assert key in d


# ---- differential oracle ------------------------------------------------


def test_differential_clean_on_many_seeds():
    for seed in range(20):
        assert differential_network_check(gen_network_case(seed)) == []


def with_flipped_dependency(prog):
    """*prog* with the last event's first dependency moved one event
    earlier (still a valid DAG, so both engines can sweep it)."""
    indices = prog.arena.dep_indices.copy()
    k = int(prog.arena.dep_indptr[-2])
    indices[k] = indices[k] - 1 if indices[k] > 0 else indices[k] + 1
    return RankEventProgram.from_columns(
        prog.ranks,
        kind=prog.kind,
        rank=prog.rank,
        peer=prog.peer,
        nbytes=prog.nbytes,
        durations=prog.durations,
        dep_indptr=prog.arena.dep_indptr,
        dep_indices=indices,
    )


def test_flipped_dependency_breaks_lowering_oracle(monkeypatch):
    case = next(
        c for c in map(gen_network_case, range(50)) if c.algorithm != "caps-dist"
    )
    real = netsim.build_events
    monkeypatch.setattr(
        netsim, "build_events", lambda *a, **k: with_flipped_dependency(real(*a, **k))
    )
    found = [
        v for v in differential_network_check(case)
        if v.invariant == "oracle.network_lowering"
    ]
    assert len(found) == 1
    assert "dep_indices" in found[0].detail
    assert "dep_indptr" not in found[0].detail


def test_lowering_oracle_compares_every_column():
    case = gen_network_case(0)
    prog = netsim.build_events(case.cluster, case.algorithm, case.n, case.ranks, case.config)
    assert compare_event_programs(prog, prog, "same") == []
    slower = prog.durations.copy()
    slower[-1] = np.nextafter(slower[-1], np.inf)  # one ulp is enough
    bad = RankEventProgram.from_columns(
        prog.ranks,
        kind=prog.kind,
        rank=prog.rank,
        peer=prog.peer,
        nbytes=prog.nbytes,
        durations=slower,
        dep_indptr=prog.arena.dep_indptr,
        dep_indices=prog.arena.dep_indices,
    )
    (v,) = compare_event_programs(prog, bad, "ulp")
    assert v.invariant == "oracle.network_lowering"
    assert "durations" in v.detail


# ---- bound invariant ----------------------------------------------------


def clean_result():
    case = gen_network_case(0)
    return simulate(case.cluster, case.algorithm, case.n, case.ranks, case.config)


def test_bounds_pass_on_a_clean_run():
    assert check_network_bounds(clean_result()) == []


def test_negative_makespan_flagged():
    bad = dataclasses.replace(clean_result(), total_time_s=-1.0)
    assert "network.finite" in names(check_network_bounds(bad))


def test_nan_makespan_flagged():
    bad = dataclasses.replace(clean_result(), total_time_s=math.nan)
    assert "network.finite" in names(check_network_bounds(bad))


def test_negative_per_rank_column_flagged():
    r = clean_result()
    sent = r.sent_bytes.copy()
    sent[0] = -8.0
    bad = dataclasses.replace(r, sent_bytes=sent)
    assert "network.finite" in names(check_network_bounds(bad))


def test_makespan_below_compute_floor_flagged():
    r = clean_result()
    bad = dataclasses.replace(r, total_time_s=r.compute_time_s / 2.0)
    assert "network.compute_floor" in names(check_network_bounds(bad))


def test_flow_conservation_flagged():
    r = clean_result()
    bad = dataclasses.replace(r, sent_bytes=r.sent_bytes + 1.0)
    assert "network.flow_conservation" in names(check_network_bounds(bad))


def test_beating_eq8_floor_flagged():
    r = clean_result()
    assert r.ranks > 1
    bad = dataclasses.replace(r, floor_bytes=r.max_comm_bytes * 2.0)
    assert "network.eq8" in names(check_network_bounds(bad))


# ---- harness wiring -----------------------------------------------------


def test_harness_ticks_network_family():
    report = run_verify(cases=11, seed=0, network_every=5)
    assert report.ok
    assert report.checks["network_sim"] == 3  # i = 0, 5, 10
