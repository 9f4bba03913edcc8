"""Invariant library: clean runs pass, corrupted runs are flagged.

The mutation tests are the important half: each one corrupts a healthy
measurement along a single axis and asserts the matching invariant (and
only a relevant one) fires.  An invariant library that cannot catch its
own target corruption is dead weight.
"""

import dataclasses

import numpy as np
import pytest

from repro.machine.energy import PlaneEnergy
from repro.runtime.scheduler import Scheduler
from repro.sim.engine import Engine
from repro.testing.generators import gen_graph_case, gen_scaling_case
from repro.testing.invariants import (
    assert_no_violations,
    check_bound_algebra,
    check_comm_bounds,
    check_ep_scaling,
    check_measurement,
)
from repro.util.errors import SimulationError


@pytest.fixture(scope="module")
def healthy():
    """A simulated case with its schedule and measurement."""
    case = gen_graph_case(2)  # arbitrary healthy seed
    schedule = Scheduler(
        case.machine, case.threads, case.policy
    ).run(case.arena)
    measurement = Engine(case.machine).measure(schedule, label="healthy")
    return case, schedule, measurement


def _mutate_energy(measurement, **changes):
    energy = dataclasses.replace(measurement.energy, **changes)
    return dataclasses.replace(measurement, energy=energy)


def test_healthy_measurement_has_no_violations(healthy):
    case, schedule, measurement = healthy
    violations = check_measurement(
        case.machine, case.graph, case.threads, schedule, measurement
    )
    assert violations == []
    assert_no_violations(violations)  # no raise


def test_many_seeds_clean():
    for seed in range(25):
        case = gen_graph_case(seed)
        schedule = Scheduler(
            case.machine, case.threads, case.policy
        ).run(case.arena)
        m = Engine(case.machine).measure(schedule, label=f"s{seed}")
        assert check_measurement(case.machine, case.graph, case.threads, schedule, m) == []


def test_assert_no_violations_raises():
    from repro.testing.invariants import Violation

    with pytest.raises(SimulationError, match="invariant violations"):
        assert_no_violations([Violation("x", "boom")])


# ---------------------------------------------------------------------------
# mutations: every energy invariant must catch its target corruption


def test_pp0_exceeding_package_is_flagged(healthy):
    case, schedule, m = healthy
    bad = _mutate_energy(m, pp0=m.energy.package + 1.0)
    names = {
        v.invariant
        for v in check_measurement(case.machine, case.graph, case.threads, schedule, bad)
    }
    assert "energy.containment" in names


def test_negative_plane_energy_is_flagged(healthy):
    case, schedule, m = healthy
    bad = _mutate_energy(m, dram=-1.0)
    names = {
        v.invariant
        for v in check_measurement(case.machine, case.graph, case.threads, schedule, bad)
    }
    assert "energy.nonnegative" in names


def test_package_below_static_floor_is_flagged(healthy):
    case, schedule, m = healthy
    if m.elapsed_s == 0:
        pytest.skip("degenerate zero-length case")
    bad = _mutate_energy(m, package=0.0, pp0=0.0)
    names = {
        v.invariant
        for v in check_measurement(case.machine, case.graph, case.threads, schedule, bad)
    }
    assert "energy.static_floor" in names


def test_trace_disagreement_is_flagged(healthy):
    """Scaling the accumulated joules away from the trace integral
    breaks the trace-agreement invariant."""
    case, schedule, m = healthy
    if m.energy.package == 0:
        pytest.skip("degenerate zero-energy case")
    bad = _mutate_energy(m, package=m.energy.package * 1.5)
    names = {
        v.invariant
        for v in check_measurement(case.machine, case.graph, case.threads, schedule, bad)
    }
    assert "energy.trace" in names


def test_flop_total_corruption_is_flagged(healthy):
    case, schedule, m = healthy
    bad = dataclasses.replace(m, flops=m.flops + 1e9)
    names = {
        v.invariant
        for v in check_measurement(case.machine, case.graph, case.threads, schedule, bad)
    }
    assert "work.flops" in names


def test_dram_byte_corruption_is_flagged(healthy):
    case, schedule, m = healthy
    bad = dataclasses.replace(m, bytes_dram=m.bytes_dram * 2 + 64.0)
    names = {
        v.invariant
        for v in check_measurement(case.machine, case.graph, case.threads, schedule, bad)
    }
    assert "work.dram_bytes" in names


def _fresh(seed=2):
    """A private healthy case (mutation targets the module fixture must
    not share)."""
    case = gen_graph_case(seed)
    schedule = Scheduler(
        case.machine, case.threads, case.policy
    ).run(case.arena)
    measurement = Engine(case.machine).measure(schedule, label="fresh")
    return case, schedule, measurement


def _corrupt(trace, plane, watts):
    """Overwrite *plane*'s watts on the first segment of nonzero length,
    in place: the columns are validated (and made read-only) on
    construction only."""
    i = int(np.flatnonzero(trace.ends > trace.starts)[0])
    column = trace.watts[plane]
    column.setflags(write=True)
    column[i] = watts


def test_negative_interval_power_is_flagged():
    """Corrupting one trace segment below zero (bypassing construction
    validation, as a buggy engine would) trips power.nonnegative."""
    from repro.power.planes import Plane

    case, schedule, m = _fresh()
    _corrupt(m.trace, Plane.PP0, -5.0)
    names = {
        v.invariant
        for v in check_measurement(case.machine, case.graph, case.threads, schedule, m)
    }
    assert "power.nonnegative" in names


def test_package_power_below_static_floor_is_flagged():
    from repro.power.planes import Plane

    case, schedule, m = _fresh(3)
    _corrupt(m.trace, Plane.PACKAGE, case.machine.energy.package_static_w * 0.5)
    names = {
        v.invariant
        for v in check_measurement(case.machine, case.graph, case.threads, schedule, m)
    }
    assert "power.static_floor" in names


# ---------------------------------------------------------------------------
# schedule feasibility mutations


def _clone_schedule(sched, iv_rows=None, stats=None):
    from repro.runtime.scheduler import Schedule

    return Schedule(
        sched.graph_name, sched.threads, sched.names,
        sched.rec_tid, sched.rec_core, sched.rec_start, sched.rec_end,
        sched.iv_rows if iv_rows is None else iv_rows,
        sched.busy_core, sched.busy_start, sched.busy_end,
        sched.stats if stats is None else stats,
    )


def _feasibility_names(case, schedule):
    from repro.testing.invariants import _check_schedule_feasibility

    return {
        v.invariant
        for v in _check_schedule_feasibility(
            case.machine, case.graph, case.threads, schedule
        )
    }


def test_negative_makespan_is_flagged():
    case, schedule, _ = _fresh()
    bad = _clone_schedule(
        schedule, stats=dataclasses.replace(schedule.stats, makespan=-1.0)
    )
    assert _feasibility_names(case, bad) == {"schedule.makespan"}


def test_impossible_makespan_breaks_every_floor():
    """A makespan far below the critical path violates the critical-path
    bound, the aggregate work floors, and the interval envelope at once."""
    case, schedule, _ = _fresh()
    if schedule.makespan == 0:
        pytest.skip("degenerate zero-length case")
    tiny = dataclasses.replace(schedule.stats, makespan=schedule.makespan * 1e-9)
    names = _feasibility_names(case, _clone_schedule(schedule, stats=tiny))
    assert "schedule.critical_path" in names
    assert "schedule.work_bound" in names
    assert "schedule.intervals" in names  # envelope extends past makespan


def test_overfull_busy_cores_is_flagged():
    case, schedule, _ = _fresh()
    if schedule.makespan == 0:
        pytest.skip("degenerate zero-length case")
    fat = dataclasses.replace(
        schedule.stats,
        busy_core_seconds=(case.threads + 1.0) * schedule.makespan + 1.0,
    )
    names = _feasibility_names(case, _clone_schedule(schedule, stats=fat))
    assert "schedule.busy_cores" in names


def test_reversed_interval_is_flagged():
    case, schedule, _ = _fresh()
    ivs = schedule.interval_columns().copy()
    if not len(ivs):
        pytest.skip("no intervals")
    ivs[0, 0] = ivs[0, 1] + 1.0
    names = _feasibility_names(case, _clone_schedule(schedule, iv_rows=ivs))
    assert "schedule.intervals" in names


def test_overlapping_intervals_are_flagged():
    case, schedule, _ = _fresh()
    ivs = schedule.interval_columns().copy()
    if len(ivs) < 2 or schedule.makespan == 0:
        pytest.skip("needs two intervals")
    ivs[1, 0] -= 0.5 * schedule.makespan
    names = _feasibility_names(case, _clone_schedule(schedule, iv_rows=ivs))
    assert "schedule.intervals" in names


# ---------------------------------------------------------------------------
# Eq. 5/6 scaling


def _scaling_series(seed=0):
    from repro.algorithms.registry import make_algorithm

    sc = gen_scaling_case(seed)
    alg = make_algorithm(sc.algorithm, sc.machine)
    engine = Engine(sc.machine)
    series = []
    for p in sc.threads:
        build = alg.build_cached(sc.n, p)
        series.append((p, engine.run(build.graph, p)))
    return series


def test_scaling_series_consistent():
    assert check_ep_scaling(_scaling_series()) == []


def test_scaling_requires_single_thread_baseline():
    series = _scaling_series()
    headless = series[1:]
    violations = check_ep_scaling(headless)
    assert violations and violations[0].invariant == "scaling.baseline"


def test_scaling_catches_corrupted_power():
    """Inflating one point's energy must break the Eq. 5 identity
    between the library's S and the re-derived power-ratio x speedup."""
    series = _scaling_series()
    if len(series) < 2:
        pytest.skip("machine too small for a sweep")
    p, m = series[-1]
    bad_energy = dataclasses.replace(
        m.energy, package=m.energy.package * 3.0, pp0=m.energy.pp0 * 3.0
    )
    series[-1] = (p, dataclasses.replace(m, energy=bad_energy))
    names = {v.invariant for v in check_ep_scaling(series)}
    # The corruption moves EP and the re-derived S together (both read
    # the same joules), so what breaks is the *classification* band
    # agreement — a tripled power at fixed time is far outside +-5% of
    # linear for any plausible sweep — or the eq5 identity when the
    # trace no longer matches.
    assert names  # some scaling invariant must fire


# ---------------------------------------------------------------------------
# Eq. 8 bounds


def test_comm_bounds_hold_for_real_algorithms():
    from repro.algorithms.registry import make_algorithm
    from repro.machine.specs import haswell_e3_1225

    machine = haswell_e3_1225()
    for name in ("openblas", "strassen", "caps"):
        alg = make_algorithm(name, machine)
        build = alg.build_cached(128, 2)
        m = Engine(machine).run(build.graph, 2)
        assert (
            check_comm_bounds(machine, name, 128, 2, m, alg.flop_count(128)) == []
        ), name


def test_comm_bounds_catch_vanishing_traffic():
    """A cost model that moves almost no DRAM bytes must dip below the
    Ballard/Demmel floor and be flagged."""
    from repro.algorithms.registry import make_algorithm
    from repro.machine.specs import haswell_e3_1225

    machine = haswell_e3_1225()
    alg = make_algorithm("openblas", machine)
    build = alg.build_cached(256, 2)
    m = Engine(machine).run(build.graph, 2)
    bad = dataclasses.replace(m, bytes_dram=64.0)
    names = {v.invariant for v in check_comm_bounds(machine, "openblas", 256, 2, bad)}
    assert "bounds.eq8" in names


def test_comm_bounds_catch_wrong_flop_count():
    from repro.algorithms.registry import make_algorithm
    from repro.machine.specs import haswell_e3_1225

    machine = haswell_e3_1225()
    alg = make_algorithm("strassen", machine)
    build = alg.build_cached(128, 1)
    m = Engine(machine).run(build.graph, 1)
    names = {
        v.invariant
        for v in check_comm_bounds(
            machine, "strassen", 128, 1, m, flop_count=2.0 * 128**3
        )
    }
    assert "bounds.flops" in names  # Strassen does fewer flops than classical


def test_bound_algebra_clean_on_many_seeds():
    for seed in range(5):
        assert check_bound_algebra(seed, samples=40) == []
