"""The invariant library: what every simulated run must satisfy.

Each checker returns a list of :class:`Violation` (empty = pass) rather
than raising, so the harness can aggregate, shrink and report.  The
checks are deliberately *re-derivations*: they recompute the quantity
under test from different raw inputs than the code path that produced
it (e.g. Eq. 5's ``S`` is re-derived as power-ratio × speedup from raw
joules and seconds, then compared against the library's EP-based
value), so a bug in either path surfaces as a disagreement.

Checked families:

* **Eq. 3 energy conservation** — PP0 ⊆ PACKAGE containment, wall
  energy = PACKAGE + DRAM, :func:`~repro.power.planes.aggregate_planes`
  agreement, and per-plane trace-integral vs accumulator agreement.
* **Non-negative interval power** — every trace segment ≥ 0 W on every
  plane, and the package plane never below the static floor.
* **Eq. 5/6 EP-scaling consistency** — S = EP_p/EP_1, the
  power-ratio × speedup identity, threshold-at-P, and an independent
  re-classification against the linear band.
* **Schedule feasibility** — makespan ≥ critical path (contention can
  only slow tasks down), makespan ≥ every per-dimension aggregate work
  bound, busy-core-seconds ≤ threads × makespan, and monotone
  non-overlapping activity intervals.
* **Work conservation** — measured flop and DRAM-byte totals equal the
  task graph's sums exactly (to rounding).
* **Eq. 8 communication bound** — a run's total DRAM words must not
  beat the Ballard/Demmel lower bound for its algorithm's exponent, and
  the bound algebra itself (max-of-terms, monotonicities, crossover
  memory, Strassen ≤ classical in the relevant regime) must hold on
  random inputs.
* **Network-schedule sanity** — an event-simulated distributed
  schedule's makespan must cover its slowest rank's compute, every
  aggregate must be finite and non-negative, the cluster-wide sent and
  received byte totals must balance, and the busiest rank may not move
  fewer bytes than the Eq. 8 floor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.bounds import (
    OMEGA_CLASSICAL,
    OMEGA_STRASSEN,
    bound_crossover_memory,
    communication_bound_words,
)
from ..core.ep import EPMeasurement
from ..core.scaling import ScalingClass, classify_scaling, linear_threshold, scaling_series
from ..machine.specs import MachineSpec
from ..power.planes import Plane, aggregate_planes
from ..runtime.scheduler import Schedule, Scheduler
from ..runtime.task import TaskGraph
from ..sim.measurement import RunMeasurement
from ..util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..distributed.netsim import NetRunResult

__all__ = [
    "Violation",
    "assert_no_violations",
    "check_bound_algebra",
    "check_comm_bounds",
    "check_ep_scaling",
    "check_measurement",
    "check_network_bounds",
]

_REL = 1e-9
_TRACE_REL = 1e-6  # engine's own trace-coarsening contract


@dataclass(frozen=True)
class Violation:
    """One failed invariant."""

    invariant: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.invariant}] {self.detail}"


def assert_no_violations(violations: Sequence[Violation]) -> None:
    """Raise :class:`SimulationError` when any invariant failed."""
    if violations:
        raise SimulationError(
            "invariant violations:\n" + "\n".join(f"  {v}" for v in violations)
        )


def _close(a: float, b: float, rel: float = _REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# per-run checks


def check_measurement(
    machine: MachineSpec,
    graph: TaskGraph,
    threads: int,
    schedule: Schedule,
    measurement: RunMeasurement,
) -> list[Violation]:
    """All single-run invariants for one simulated execution."""
    out: list[Violation] = []
    out += _check_energy_conservation(machine, measurement)
    out += _check_interval_power(machine, measurement)
    out += _check_schedule_feasibility(machine, graph, threads, schedule)
    out += _check_work_conservation(graph, measurement)
    return out


def _check_energy_conservation(
    machine: MachineSpec, m: RunMeasurement
) -> list[Violation]:
    """Eq. 3: plane containment, aggregation, and trace agreement."""
    out: list[Violation] = []
    e = m.energy
    if e.package < 0 or e.pp0 < 0 or e.dram < 0:
        out.append(
            Violation(
                "energy.nonnegative",
                f"negative plane energy: pkg={e.package} pp0={e.pp0} dram={e.dram}",
            )
        )
    if e.pp0 > e.package * (1 + _REL) + 1e-12:
        out.append(
            Violation(
                "energy.containment",
                f"PP0 {e.pp0} J exceeds PACKAGE {e.package} J "
                "(RAPL containment: the package counter covers the cores)",
            )
        )
    # Eq. 3 over the independent planes must equal package + dram,
    # and must match the measurement's own total.  aggregate_planes
    # itself rejects negative readings, so only consult it on inputs
    # that passed the non-negativity invariant above.
    direct = e.package + e.dram
    if not out:
        agg = aggregate_planes(e.as_dict())
        if not _close(agg, direct):
            out.append(
                Violation(
                    "energy.eq3",
                    f"aggregate_planes gave {agg} J but PACKAGE+DRAM is {direct} J",
                )
            )
    if not _close(m.total_energy_j, direct):
        out.append(
            Violation(
                "energy.total",
                f"total_energy_j {m.total_energy_j} J != PACKAGE+DRAM {direct} J",
            )
        )
    # The power trace must integrate back to the accumulated energies
    # on *every* plane (the engine itself only asserts PACKAGE).
    for plane, accounted in (
        (Plane.PACKAGE, e.package),
        (Plane.PP0, e.pp0),
        (Plane.DRAM, e.dram),
    ):
        trace_e = m.trace.energy(plane)
        if abs(trace_e - accounted) > _TRACE_REL * max(1.0, accounted):
            out.append(
                Violation(
                    "energy.trace",
                    f"{plane} trace integral {trace_e} J disagrees with "
                    f"accounted {accounted} J",
                )
            )
    if m.elapsed_s > 0:
        floor = machine.energy.package_static_w * m.elapsed_s
        if e.package + 1e-9 < floor * (1 - _REL):
            out.append(
                Violation(
                    "energy.static_floor",
                    f"package {e.package} J below static floor {floor} J",
                )
            )
    return out


def _check_interval_power(machine: MachineSpec, m: RunMeasurement) -> list[Violation]:
    """Non-negative instantaneous power; package ≥ static floor."""
    out: list[Violation] = []
    static = machine.energy.package_static_w
    for i, seg in enumerate(m.trace.segments):
        for plane, watts in seg.watts.items():
            if watts < 0:
                out.append(
                    Violation(
                        "power.nonnegative",
                        f"segment {i} [{seg.t_start}, {seg.t_end}) has "
                        f"{watts} W on {plane}",
                    )
                )
        if seg.duration > 0:
            pkg_w = seg.watts.get(Plane.PACKAGE, 0.0)
            if pkg_w < static * (1 - _TRACE_REL) - 1e-12:
                out.append(
                    Violation(
                        "power.static_floor",
                        f"segment {i} package power {pkg_w} W below the "
                        f"static floor {static} W",
                    )
                )
    return out


def _check_schedule_feasibility(
    machine: MachineSpec, graph: TaskGraph, threads: int, schedule: Schedule
) -> list[Violation]:
    """Makespan floors and interval structure."""
    out: list[Violation] = []
    makespan = schedule.makespan
    if makespan < 0:
        out.append(Violation("schedule.makespan", f"negative makespan {makespan}"))
        return out

    # Critical path: contention can only slow tasks, never speed them up.
    duration_of = Scheduler(machine, threads, "fifo").uncontended_duration
    critical = graph.critical_path_seconds(duration_of)
    if makespan < critical * (1 - _REL):
        out.append(
            Violation(
                "schedule.critical_path",
                f"makespan {makespan} s below the critical path {critical} s",
            )
        )

    # Aggregate work bounds, one per resource dimension.
    flop_time = 0.0
    b1 = b2 = b3 = bd = 0.0
    for t in graph.tasks:
        c = t.cost
        if c.flops:
            flop_time += c.flops / c.efficiency
        b1 += c.bytes_l1
        b2 += c.bytes_l2
        b3 += c.bytes_l3
        bd += c.bytes_dram
    sockets = len(machine.topology.sockets)
    l1_bw = machine.caches.level("L1").bandwidth_bytes_per_s
    l2_bw = machine.caches.level("L2").bandwidth_bytes_per_s
    floors = {
        "flops": flop_time / (threads * machine.core_peak_flops),
        "l1": b1 / (threads * l1_bw),
        "l2": b2 / (threads * l2_bw),
        "l3": b3 / (machine.l3_bandwidth * sockets),
        "dram": bd / machine.dram_bandwidth,
    }
    for dim, floor in floors.items():
        if makespan < floor * (1 - _REL):
            out.append(
                Violation(
                    "schedule.work_bound",
                    f"makespan {makespan} s beats the aggregate {dim} "
                    f"service floor {floor} s",
                )
            )

    busy = schedule.stats.busy_core_seconds
    if busy > threads * makespan * (1 + _REL) + 1e-9:
        out.append(
            Violation(
                "schedule.busy_cores",
                f"busy core-seconds {busy} exceed threads×makespan "
                f"{threads * makespan}",
            )
        )

    prev_end = 0.0
    for i, row in enumerate(schedule.raw_intervals):
        t_start, t_end = row[0], row[1]
        if t_end < t_start:
            out.append(
                Violation(
                    "schedule.intervals",
                    f"interval {i} ends before it starts: [{t_start}, {t_end})",
                )
            )
        if t_start < prev_end - 1e-9 * max(1.0, makespan):
            out.append(
                Violation(
                    "schedule.intervals",
                    f"interval {i} starts at {t_start} before previous end {prev_end}",
                )
            )
        prev_end = max(prev_end, t_end)
    if schedule.raw_intervals and prev_end > makespan * (1 + _REL) + 1e-12:
        out.append(
            Violation(
                "schedule.intervals",
                f"intervals extend to {prev_end} beyond makespan {makespan}",
            )
        )
    return out


def _check_work_conservation(graph: TaskGraph, m: RunMeasurement) -> list[Violation]:
    """Measured activity totals must equal the graph's demand sums."""
    out: list[Violation] = []
    total = graph.total_cost()
    if not _close(m.flops, total.flops):
        out.append(
            Violation(
                "work.flops",
                f"measured {m.flops} flops != graph total {total.flops}",
            )
        )
    if not _close(m.bytes_dram, total.bytes_dram):
        out.append(
            Violation(
                "work.dram_bytes",
                f"measured {m.bytes_dram} DRAM bytes != graph total "
                f"{total.bytes_dram}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Eq. 5/6: EP-scaling consistency


def check_ep_scaling(
    series: Sequence[tuple[int, RunMeasurement]],
    plane: Plane = Plane.PACKAGE,
    rel_tolerance: float = 0.05,
) -> list[Violation]:
    """Eq. 5/6 consistency over a thread sweep (first entry must be the
    1-thread baseline).

    The library's :func:`scaling_series` values are compared against an
    independent re-derivation — ``S = (W_p / W_1) · (T_1 / T_p)`` from
    raw joules and seconds — and each point's classification against a
    direct comparison with the ``S = P`` linear band.
    """
    out: list[Violation] = []
    threads = [p for p, _ in series]
    if not threads or threads[0] != 1:
        return [Violation("scaling.baseline", f"series must start at P=1, got {threads}")]

    eps = [EPMeasurement(m, plane, "power").ep for _, m in series]
    points = scaling_series(eps, threads)

    base_p, base = series[0]
    w1 = base.avg_power_w(plane)
    t1 = base.elapsed_s
    for point, (p, m) in zip(points, series):
        # The EP/S chain reads the *accumulated* joules; the power trace
        # is the independent raw record of the same run.  A corruption
        # that scales the accumulator (or the trace) moves EP and the
        # re-derived S together, so this disagreement is the only
        # tripwire left for it.
        trace_e = m.trace.energy(plane)
        accounted = m.energy.as_dict()[plane.value]
        if abs(trace_e - accounted) > _TRACE_REL * max(1.0, accounted):
            out.append(
                Violation(
                    "scaling.trace",
                    f"P={p}: {plane} accumulator {accounted} J disagrees "
                    f"with its trace integral {trace_e} J — the EP series "
                    f"is built on corrupted joules",
                )
            )
        # Eq. 5 identity, re-derived from raw observables.
        s_direct = (m.avg_power_w(plane) / w1) * (t1 / m.elapsed_s)
        if not _close(point.s, s_direct):
            out.append(
                Violation(
                    "scaling.eq5",
                    f"P={p}: library S={point.s} but power-ratio×speedup "
                    f"gives {s_direct}",
                )
            )
        # Eq. 6's threshold is the parallelism itself.
        if linear_threshold(p) != float(p):
            out.append(
                Violation(
                    "scaling.threshold",
                    f"linear threshold at P={p} is {linear_threshold(p)}",
                )
            )
        # Independent re-classification against the linear band.
        if point.s > p * (1 + rel_tolerance):
            expected = ScalingClass.SUPERLINEAR
        elif point.s < p * (1 - rel_tolerance):
            expected = ScalingClass.IDEAL
        else:
            expected = ScalingClass.LINEAR
        if point.scaling_class is not expected:
            out.append(
                Violation(
                    "scaling.classification",
                    f"P={p}, S={point.s}: classified "
                    f"{point.scaling_class.value}, band says {expected.value}",
                )
            )
        if classify_scaling(point.s, p, rel_tolerance) is not point.scaling_class:
            out.append(
                Violation(
                    "scaling.classify_fn",
                    f"P={p}: classify_scaling disagrees with the series point",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Eq. 8: communication bounds


def _omega_for(algorithm: str) -> float:
    return OMEGA_CLASSICAL if algorithm == "openblas" else OMEGA_STRASSEN


def check_comm_bounds(
    machine: MachineSpec,
    algorithm: str,
    n: int,
    threads: int,
    measurement: RunMeasurement,
    flop_count: float | None = None,
) -> list[Violation]:
    """A run's totals against the Eq. 8 lower bound.

    The Ballard/Demmel bounds are *lower* bounds on data movement: no
    legal schedule, and therefore no honest cost model, may move fewer
    DRAM words than ``P × Eq.8(n, P, M)`` with ``M`` the shared-cache
    capacity in words.  A simulated run dipping below means the traffic
    model has gone unphysical.
    """
    out: list[Violation] = []
    if flop_count is not None:
        # The algorithm's count is a floor on the simulated total: some
        # lowerings add 1-flop sentinels to bookkeeping tasks (e.g.
        # CAPS's operand-packing copies) so they are never zero-cost.
        # That overhead is O(tasks) flops against an O(n^w0) count; a
        # real counting bug (wrong exponent, missing level) is off by
        # orders of magnitude more than the 1e-5 headroom allowed here.
        low = flop_count * (1 - _REL)
        high = flop_count * (1 + 1e-5)
        if not (low <= measurement.flops <= high):
            out.append(
                Violation(
                    "bounds.flops",
                    f"{algorithm} n={n}: measured {measurement.flops} flops "
                    f"outside [{low}, {high}] around the algorithm count "
                    f"{flop_count}",
                )
            )
    m_words = machine.caches.last_level_capacity / 8.0
    omega = _omega_for(algorithm)
    per_proc = communication_bound_words(n, threads, m_words, omega).words
    lower_total = threads * per_proc
    words_moved = measurement.bytes_dram / 8.0
    if words_moved < lower_total * (1 - _REL):
        out.append(
            Violation(
                "bounds.eq8",
                f"{algorithm} n={n} P={threads}: moved {words_moved:.0f} "
                f"DRAM words, below the Eq. 8 lower bound {lower_total:.0f} "
                f"(M={m_words:.0f} words, w0={omega:.3f})",
            )
        )
    return out


def check_bound_algebra(seed: int, samples: int = 25) -> list[Violation]:
    """Algebraic self-consistency of the Eq. 8 implementation on random
    inputs: max-of-terms, monotonicities, crossover memory, and the
    Strassen-beats-classical regime."""
    out: list[Violation] = []
    rng = random.Random(seed ^ 0xB0D5)
    for _ in range(samples):
        n = math.exp(rng.uniform(math.log(64), math.log(1e5)))
        p = math.exp(rng.uniform(0.0, math.log(1024)))
        m = math.exp(rng.uniform(math.log(1e3), math.log(1e9)))
        omega = rng.choice((OMEGA_STRASSEN, OMEGA_CLASSICAL, rng.uniform(2.2, 3.0)))
        b = communication_bound_words(n, p, m, omega)
        if not _close(b.words, max(b.memory_dependent, b.memory_independent)):
            out.append(
                Violation(
                    "bounds.max_of_terms",
                    f"(n={n:.3g}, p={p:.3g}, m={m:.3g}, w0={omega:.3f}): "
                    f"words {b.words} != max of terms",
                )
            )
        # Monotone: more memory or more processors never increases the
        # bound; bigger problems never decrease it.
        more_mem = communication_bound_words(n, p, 4 * m, omega).words
        if more_mem > b.words * (1 + _REL):
            out.append(
                Violation(
                    "bounds.monotone_memory",
                    f"bound increased with memory: {b.words} -> {more_mem}",
                )
            )
        more_procs = communication_bound_words(n, 4 * p, m, omega).words
        if more_procs > b.words * (1 + _REL):
            out.append(
                Violation(
                    "bounds.monotone_procs",
                    f"bound increased with processors: {b.words} -> {more_procs}",
                )
            )
        bigger_n = communication_bound_words(2 * n, p, m, omega).words
        if bigger_n < b.words * (1 - _REL):
            out.append(
                Violation(
                    "bounds.monotone_n",
                    f"bound decreased with n: {b.words} -> {bigger_n}",
                )
            )
        # Crossover memory: the two terms meet there and order correctly
        # on either side.
        m_star = bound_crossover_memory(n, p, omega)
        at_star = communication_bound_words(n, p, m_star, omega)
        if not _close(at_star.memory_dependent, at_star.memory_independent, rel=1e-6):
            out.append(
                Violation(
                    "bounds.crossover",
                    f"terms unequal at M*: {at_star.memory_dependent} vs "
                    f"{at_star.memory_independent}",
                )
            )
        below = communication_bound_words(n, p, m_star / 4, omega)
        above = communication_bound_words(n, p, m_star * 4, omega)
        if below.memory_dependent < below.memory_independent * (1 - _REL):
            out.append(
                Violation(
                    "bounds.regime",
                    "memory-dependent term does not bind below the crossover",
                )
            )
        if above.memory_independent < above.memory_dependent * (1 - _REL):
            out.append(
                Violation(
                    "bounds.regime",
                    "memory-independent term does not bind above the crossover",
                )
            )
        # Strassen's exponent buys lower bounds than classical whenever
        # the memory is sub-quadratic in n (M <= n^1.9 guards the
        # algebraic regime where both terms favour w0 < 3).
        if m <= n**1.9:
            caps = communication_bound_words(n, p, m, OMEGA_STRASSEN).words
            classical = communication_bound_words(n, p, m, OMEGA_CLASSICAL).words
            if caps > classical * (1 + _REL):
                out.append(
                    Violation(
                        "bounds.strassen_vs_classical",
                        f"(n={n:.3g}, p={p:.3g}, m={m:.3g}): Strassen bound "
                        f"{caps} exceeds classical {classical}",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# network-schedule sanity (discrete-event simulator)


def check_network_bounds(result: "NetRunResult") -> list[Violation]:
    """Sanity of one event-simulated distributed schedule.

    The makespan must cover the slowest rank's compute (communication
    and barriers only ever add), every aggregate must be a finite
    non-negative number, the cluster's total bytes sent must equal the
    total received (every send event pairs with exactly one receive),
    and the busiest rank must move at least the Eq. 8 floor for the
    algorithm's exponent — the same ``beats_bound`` tripwire CI gates
    on for the thousand-rank sweeps.
    """
    out: list[Violation] = []
    tag = f"{result.algorithm} n={result.n} P={result.ranks} ({result.engine})"
    if not math.isfinite(result.total_time_s) or result.total_time_s < 0:
        out.append(
            Violation("network.finite", f"{tag}: makespan {result.total_time_s}")
        )
    for name, arr in (
        ("compute_s", result.compute_s),
        ("sent_bytes", result.sent_bytes),
        ("recv_bytes", result.recv_bytes),
    ):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.size and (not np.all(np.isfinite(arr)) or float(arr.min()) < 0):
            out.append(
                Violation(
                    "network.finite",
                    f"{tag}: per-rank {name} has a negative or non-finite entry",
                )
            )
    slowest = result.compute_time_s
    if result.total_time_s < slowest * (1 - _REL):
        out.append(
            Violation(
                "network.compute_floor",
                f"{tag}: makespan {result.total_time_s} s below the slowest "
                f"rank's compute {slowest} s",
            )
        )
    sent = math.fsum(float(x) for x in result.sent_bytes)
    recv = math.fsum(float(x) for x in result.recv_bytes)
    if not _close(sent, recv):
        out.append(
            Violation(
                "network.flow_conservation",
                f"{tag}: cluster sent {sent} bytes but received {recv}",
            )
        )
    if result.beats_bound():
        out.append(
            Violation(
                "network.eq8",
                f"{tag}: busiest rank moved {result.max_comm_bytes:.0f} bytes, "
                f"below the Eq. 8 floor {result.floor_bytes:.0f}",
            )
        )
    return out
