"""Execution engine: schedule a task graph, account energy, emit traces.

The engine is the simulated analogue of the paper's instrumented test
driver (§V-C): it runs a workload (a :class:`TaskArena`) at a given
thread count, integrates the energy model over the schedule's activity
intervals, deposits joules into the emulated RAPL MSRs (so a PAPI event
set wrapped around :meth:`Engine.run` observes the run exactly as the
paper's driver did), and returns a :class:`RunMeasurement`.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..machine.energy import Activity, PlaneEnergy, ordered_sum
from ..machine.specs import MachineSpec

# Aliased: ``measure`` has a local ``trace`` (the PowerTrace).
from ..observability import trace as obtrace
from ..power.msr import MsrFile, deposit_planes
from ..power.planes import Plane
from ..power.sampling import PowerTrace
from ..runtime.arena import TaskArena
from ..runtime.scheduler import Schedule, SchedulePolicy, Scheduler, SchedulerEngine
from ..util.validation import require_positive
from .measurement import RunMeasurement

__all__ = ["ENGINE_VERSION", "Engine"]

#: Version of the simulation semantics (event kernels, energy model
#: integration, measurement assembly).  The content-addressed result
#: store (:mod:`repro.core.resultstore`) folds this into every cell
#: key, so bumping it orphans all cached results — do so whenever a
#: change makes previously simulated numbers non-reproducible.
ENGINE_VERSION = 2


class Engine:
    """Runs task graphs on a machine model with full energy accounting.

    Parameters
    ----------
    machine:
        Platform spec (topology, bandwidths, energy model).
    max_trace_segments:
        Power traces are coarsened to at most this many segments; the
        energy integral is preserved exactly, only the time resolution
        of the watts curve is reduced.  Keeps multi-hundred-thousand-task
        runs cheap to post-process.
    msr:
        Optional emulated MSR file; when given, every run deposits its
        plane energies so RAPL/PAPI readers observe them.
    engine:
        Scheduler event kernel (``"compiled"``/``"fast"``/
        ``"reference"``); ``None`` lets the platform pick via
        :func:`repro.runtime.scheduler.default_engine`.
    """

    def __init__(
        self,
        machine: MachineSpec,
        max_trace_segments: int = 512,
        msr: MsrFile | None = None,
        engine: SchedulerEngine | None = None,
    ):
        require_positive(max_trace_segments, "max_trace_segments")
        self.machine = machine
        self.max_trace_segments = max_trace_segments
        self.msr = msr
        self.engine = engine

    # ------------------------------------------------------------------

    def run(
        self,
        graph: TaskArena,
        threads: int,
        policy: SchedulePolicy = "fifo",
        label: str | None = None,
    ) -> RunMeasurement:
        """Simulate *graph* with *threads* workers and measure it.

        Simulation prices costs only; numerics run afterwards, in an
        order the schedule proves valid (:meth:`simulate` returns it).
        """
        return self.simulate(graph, threads, policy, label)[0]

    def simulate(
        self,
        graph: TaskArena,
        threads: int,
        policy: SchedulePolicy = "fifo",
        label: str | None = None,
    ) -> tuple[RunMeasurement, Schedule]:
        """Like :meth:`run`, but also return the schedule — whose start
        order a numerics replay follows."""
        schedule = Scheduler(self.machine, threads, policy, engine=self.engine).run(graph)
        return self.measure(schedule, label=label or graph.name), schedule

    def measure(self, schedule: Schedule, label: str) -> RunMeasurement:
        """Convert a finished schedule into a measurement."""
        with obtrace.span(
            "measure", label=label, threads=schedule.threads
        ):
            return self._measure(schedule, label)

    def _measure(self, schedule: Schedule, label: str) -> RunMeasurement:
        # One broadcast evaluation of the energy model over the bucket
        # columns: each bucket's joules have the bits of a scalar call,
        # and the totals fold in bucket order (never pairwise).
        t_start, t_end, busy, flops, l1, l2, l3, dram = self._coarsen(schedule)
        dt = t_end - t_start
        energy = self.machine.energy.interval_energy(
            Activity(
                dt=dt,
                busy_core_seconds=busy * dt,
                flops=flops,
                bytes_l1=l1,
                bytes_l2=l2,
                bytes_l3=l3,
                bytes_dram=dram,
            ),
            self.machine.dvfs_factor,
        )
        total = PlaneEnergy(
            ordered_sum(energy.package),
            ordered_sum(energy.pp0),
            ordered_sum(energy.dram),
        )

        # Zero-length buckets carry energy but no power segment.
        keep = dt > 0
        if keep.any():
            d = dt[keep]
            trace = PowerTrace.from_columns(
                t_start[keep],
                t_end[keep],
                {
                    Plane.PACKAGE: energy.package[keep] / d,
                    Plane.PP0: energy.pp0[keep] / d,
                    Plane.DRAM: energy.dram[keep] / d,
                },
            )
        else:
            # Degenerate graph (all zero-cost tasks): represent it as an
            # infinitesimal idle blip so traces stay well-formed.
            blip = np.zeros(1)
            trace = PowerTrace.from_columns(
                blip, blip, {Plane.PACKAGE: blip, Plane.PP0: blip, Plane.DRAM: blip}
            )
        if self.msr is not None:
            deposit_planes(self.msr, total)

        measurement = RunMeasurement(
            label=label,
            threads=schedule.threads,
            elapsed_s=schedule.makespan,
            energy=total,
            trace=trace,
            flops=ordered_sum(flops),
            bytes_dram=ordered_sum(dram),
            stats=schedule.stats,
        )
        measurement.check_invariants(self.machine)
        return measurement

    def idle_measurement(self, duration_s: float, label: str = "idle") -> RunMeasurement:
        """Measure an idle machine for *duration_s* — the simulated
        analogue of the paper's 60 s quiesce sleep between tests."""
        require_positive(duration_s, "duration_s")
        energy = self.machine.energy.idle_energy(duration_s)
        idle_w = self.machine.energy.idle_power_w()
        trace = PowerTrace.from_columns(
            [0.0],
            [duration_s],
            {plane: [idle_w[plane.name]] for plane in (Plane.PACKAGE, Plane.PP0, Plane.DRAM)},
        )
        if self.msr is not None:
            # Deposit all three planes, mirroring Engine.measure — a
            # PAPI reader wrapped around the quiesce sleep must see a
            # consistent idle baseline on PP0 too.
            deposit_planes(self.msr, energy)
        from ..runtime.stats import RuntimeStats

        stats = RuntimeStats(
            makespan=duration_s,
            busy_core_seconds=0.0,
            threads=1,
            task_count=0,
            avg_parallelism=0.0,
            utilization=0.0,
            imbalance=1.0,
            migrations=0,
            steals=0,
        )
        return RunMeasurement(
            label=label,
            threads=1,
            elapsed_s=duration_s,
            energy=energy,
            trace=trace,
            flops=0.0,
            bytes_dram=0.0,
            stats=stats,
        )

    # ------------------------------------------------------------------

    def _coarsen(self, schedule: Schedule) -> tuple[np.ndarray, ...]:
        """Merge adjacent intervals into at most ``max_trace_segments``
        buckets, preserving every activity integral exactly.

        Returns the buckets as eight ``(k,)`` float64 columns in
        :class:`~repro.runtime.scheduler.ActivityInterval` field order:
        start, end, busy cores, flops, L1, L2, L3 and DRAM bytes.  A
        schedule with no more intervals than that is returned as views
        of :meth:`Schedule.interval_columns`.  Otherwise each bucket is
        closed greedily by the first interval
        whose end reaches ``bucket_start + bucket_dt``, located by
        bisecting the monotone interval-end column, and each
        bucket's activity sums are single ``np.add.reduceat`` segments.
        No per-interval or per-bucket object is built.
        """
        cols = schedule.interval_columns()
        n = len(cols)
        if n <= self.max_trace_segments:
            return tuple(cols.T)
        bucket_dt = schedule.makespan / self.max_trace_segments
        t_start = cols[:, 0]
        t_end = cols[:, 1]
        busy_secs = cols[:, 2] * (t_end - t_start)  # busy-core-seconds

        # Greedy bucket boundaries.  Bisection gives the candidate
        # closing interval; the exact scalar condition
        # ``t_end - start >= bucket_dt`` is re-checked locally because
        # ``a - b >= c`` and ``a >= b + c`` can disagree by one ulp.
        # Memoryviews read the strided columns as Python floats without
        # copying them: a ``tolist`` of a million-row column costs more
        # than the whole search.
        first, close = memoryview(t_start), memoryview(t_end)
        starts = []  # first row index of each bucket
        i = 0
        while i < n:
            starts.append(i)
            start = first[i]
            j = bisect_left(close, start + bucket_dt, i)
            while j > i and close[j - 1] - start >= bucket_dt:
                j -= 1
            while j < n - 1 and close[j] - start < bucket_dt:
                j += 1
            i = j + 1

        idx = np.array(starts, dtype=np.intp)
        ends = np.append(idx[1:] - 1, n - 1)  # last row of each bucket
        b_start = t_start[idx]
        b_end = t_end[ends]
        duration = b_end - b_start
        busy, flops, l1, l2, l3, dram = (
            np.add.reduceat(col, idx)
            for col in (busy_secs, cols[:, 3], cols[:, 4], cols[:, 5], cols[:, 6], cols[:, 7])
        )
        # Fractional after coarsening: the time-weighted mean busy
        # count preserves the busy-core-seconds integral exactly
        # (see ActivityInterval.busy_cores docs).
        avg_busy = np.divide(
            busy, duration, out=np.zeros_like(duration), where=duration > 0
        )
        return b_start, b_end, avg_busy, flops, l1, l2, l3, dram
