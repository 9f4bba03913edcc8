"""Execution engine: schedule a task graph, account energy, emit traces.

The engine is the simulated analogue of the paper's instrumented test
driver (§V-C): it runs a workload (a :class:`TaskGraph`) at a given
thread count, integrates the energy model over the schedule's activity
intervals, deposits joules into the emulated RAPL MSRs (so a PAPI event
set wrapped around :meth:`Engine.run` observes the run exactly as the
paper's driver did), and returns a :class:`RunMeasurement`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.energy import Activity, PlaneEnergy
from ..machine.specs import MachineSpec

# Aliased: ``measure`` has a local ``trace`` (the PowerTrace).
from ..observability import trace as obtrace
from ..power.msr import MsrFile, deposit_planes
from ..power.planes import Plane
from ..power.sampling import PowerSegment, PowerTrace
from ..runtime.scheduler import (
    ActivityInterval,
    Schedule,
    SchedulePolicy,
    Scheduler,
    SchedulerEngine,
)
from ..runtime.replay import replay
from ..runtime.task import TaskGraph
from ..util.deprecation import warn_deprecated
from ..util.errors import ConfigurationError
from ..util.validation import require_positive
from .measurement import RunMeasurement

__all__ = ["ENGINE_VERSION", "Engine"]

#: Version of the simulation semantics (event kernels, energy model
#: integration, measurement assembly).  The content-addressed result
#: store (:mod:`repro.core.resultstore`) folds this into every cell
#: key, so bumping it orphans all cached results — do so whenever a
#: change makes previously simulated numbers non-reproducible.
ENGINE_VERSION = 1


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
        Scheduler event kernel (``"fast"``/``"reference"``/
        ``"compiled"``); ``None`` resolves via
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
        graph: TaskGraph,
        threads: int,
        policy: SchedulePolicy = "fifo",
        execute: bool | None = None,
        label: str | None = None,
    ) -> RunMeasurement:
        """Simulate *graph* with *threads* workers and measure it.

        ``execute`` is deprecated: simulation never runs ``compute``
        closures.  ``execute=True`` still replays them after the run
        (:func:`repro.runtime.replay.replay`, in the schedule's start
        order), as the old in-scheduler execution did.
        """
        measurement, schedule = self.simulate(graph, threads, policy, label)
        if execute is not None:
            warn_deprecated(
                "Engine.run(execute=...)",
                "Engine.simulate(...) and repro.runtime.replay.replay_numerics",
            )
            if execute:
                replay(graph, schedule.start_order())
        return measurement

    def simulate(
        self,
        graph: TaskGraph,
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
        dvfs = self.machine.dvfs_factor
        model = self.machine.energy

        total = PlaneEnergy.zero()
        flops = 0.0
        bytes_dram = 0.0
        segments: list[PowerSegment] = []

        intervals = self._coarsen(schedule)
        for iv in intervals:
            activity = Activity(
                dt=iv.duration,
                busy_core_seconds=iv.busy_cores * iv.duration,
                flops=iv.flops,
                bytes_l1=iv.bytes_l1,
                bytes_l2=iv.bytes_l2,
                bytes_l3=iv.bytes_l3,
                bytes_dram=iv.bytes_dram,
            )
            energy = model.interval_energy(activity, dvfs)
            total = total + energy
            flops += iv.flops
            bytes_dram += iv.bytes_dram
            if iv.duration > 0:
                segments.append(
                    PowerSegment(
                        iv.t_start,
                        iv.t_end,
                        {
                            Plane.PACKAGE: energy.package / iv.duration,
                            Plane.PP0: energy.pp0 / iv.duration,
                            Plane.DRAM: energy.dram / iv.duration,
                        },
                    )
                )

        if not segments:
            # Degenerate graph (all zero-cost tasks): represent it as an
            # infinitesimal idle blip so traces stay well-formed.
            segments = [
                PowerSegment(0.0, 0.0, {p: 0.0 for p in (Plane.PACKAGE, Plane.PP0, Plane.DRAM)})
            ]

        trace = PowerTrace(segments)
        if self.msr is not None:
            deposit_planes(self.msr, total)

        measurement = RunMeasurement(
            label=label,
            threads=schedule.threads,
            elapsed_s=schedule.makespan,
            energy=total,
            trace=trace,
            flops=flops,
            bytes_dram=bytes_dram,
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
        trace = PowerTrace(
            [
                PowerSegment(
                    0.0,
                    duration_s,
                    {
                        Plane.PACKAGE: idle_w["PACKAGE"],
                        Plane.PP0: idle_w["PP0"],
                        Plane.DRAM: idle_w["DRAM"],
                    },
                )
            ]
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

    def _coarsen(self, schedule: Schedule) -> list[ActivityInterval]:
        """Merge adjacent intervals into at most ``max_trace_segments``
        buckets, preserving every activity integral exactly.

        Consumes the schedule's ``(k, 8)`` interval array
        (:meth:`Schedule.interval_columns` — no per-interval tuples or
        objects are built, only the returned buckets) and groups it
        vectorially: each bucket is
        closed by the first interval whose end reaches ``bucket_start +
        bucket_dt`` (greedy accumulation, same grouping as a scalar
        pass), located with a binary search over the monotone
        interval-end column; each bucket's activity sums are then
        single ``np.add.reduceat`` segments.  A ~300k interval Strassen
        schedule coarsens in milliseconds instead of a Python-loop
        second.
        """
        cols = schedule.interval_columns()
        n = len(cols)
        if n <= self.max_trace_segments:
            return [ActivityInterval(*row) for row in cols.tolist()]
        makespan = schedule.makespan
        bucket_dt = makespan / self.max_trace_segments
        t_start = cols[:, 0]
        t_end = cols[:, 1]
        busy_secs = cols[:, 2] * (t_end - t_start)  # busy-core-seconds

        # Greedy bucket boundaries.  searchsorted gives the candidate
        # closing interval; the exact scalar condition
        # ``t_end - start >= bucket_dt`` is re-checked locally because
        # ``a - b >= c`` and ``a >= b + c`` can disagree by one ulp.
        starts = []  # first row index of each bucket
        i = 0
        while i < n:
            starts.append(i)
            start = t_start[i]
            j = int(np.searchsorted(t_end, start + bucket_dt, side="left"))
            if j < i:
                j = i
            while j > i and t_end[j - 1] - start >= bucket_dt:
                j -= 1
            while j < n - 1 and t_end[j] - start < bucket_dt:
                j += 1
            i = j + 1

        idx = np.array(starts, dtype=np.intp)
        ends = np.append(idx[1:] - 1, n - 1)  # last row of each bucket
        b_start = t_start[idx]
        b_end = t_end[ends]
        duration = b_end - b_start
        sums = [
            np.add.reduceat(col, idx)
            for col in (busy_secs, cols[:, 3], cols[:, 4], cols[:, 5], cols[:, 6], cols[:, 7])
        ]
        # Fractional after coarsening: the time-weighted mean busy
        # count preserves the busy-core-seconds integral exactly
        # (see ActivityInterval.busy_cores docs).
        avg_busy = np.divide(
            sums[0], duration, out=np.zeros_like(duration), where=duration > 0
        )
        return [
            ActivityInterval(
                t_start=float(b_start[k]),
                t_end=float(b_end[k]),
                busy_cores=float(avg_busy[k]),
                flops=float(sums[1][k]),
                bytes_l1=float(sums[2][k]),
                bytes_l2=float(sums[3][k]),
                bytes_l3=float(sums[4][k]),
                bytes_dram=float(sums[5][k]),
            )
            for k in range(len(idx))
        ]
