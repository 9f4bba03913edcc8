"""Discrete-event task scheduler with shared-resource contention.

This is the simulated analogue of the OpenMP runtime the paper runs on
(BOTS tasking + work sharing, §IV-B/C).  ``P`` worker cores run a
:class:`~repro.runtime.task.TaskGraph`; each running task progresses
simultaneously along its five cost dimensions:

* compute — private, at ``efficiency * core_peak`` flop/s;
* L1/L2 fill — private, at the per-core cache bandwidths;
* L3 fill — **shared**: the LLC bandwidth is split equally among the
  running tasks that still have L3 bytes outstanding;
* DRAM — **shared**: the (single-channel!) memory bandwidth is split
  equally among tasks with DRAM bytes outstanding.

A task finishes when every dimension is exhausted (full overlap).  The
equal-split processor-sharing model is what makes blocked DGEMM stop
scaling once its aggregate DRAM demand saturates the channel while its
cores keep burning power — the mechanism behind the paper's superlinear
energy-performance scaling for OpenBLAS (Fig. 7).

Events occur whenever any dimension of any running task completes (the
shared rates change at that instant); between events all rates are
constant, so the simulation is exact for the model, not time-stepped.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Literal, Sequence

import numpy as np

from ..machine.specs import MachineSpec
from ..observability import trace
from ..observability.metrics import counter
from ..util.errors import ConfigurationError, SchedulingError
from .cost import TaskCost
from .task import Task, TaskGraph
from .timeline import CoreTimeline
from .stats import RuntimeStats

#: Contention sweeps performed by the reference event kernel.  The
#: fast kernel's twin lives in ``repro.runtime.fastpath``; both tally
#: ``len(schedule.intervals)`` *after* their hot loops, so the counter
#: costs nothing per event.
_REF_EVENTS = counter(
    "engine.events",
    description="contention intervals swept by the reference event kernel",
)

__all__ = [
    "ActivityInterval",
    "TaskRecord",
    "Schedule",
    "Scheduler",
    "SchedulePolicy",
    "SchedulerEngine",
    "ENGINES",
    "default_engine",
]

SchedulePolicy = Literal["fifo", "lifo", "critical", "steal"]
SchedulerEngine = Literal["fast", "reference", "compiled"]

#: Every engine name the scheduler knows, in documentation order.
#: ``compiled`` additionally needs a working C toolchain — probe with
#: :func:`repro.runtime.compiledpath.compiled_available`.
ENGINES: tuple[SchedulerEngine, ...] = ("reference", "fast", "compiled")


def default_engine() -> SchedulerEngine:
    """The process-wide default event kernel.

    ``"fast"`` (the vectorized kernel in :mod:`repro.runtime.fastpath`)
    unless overridden with ``REPRO_ENGINE`` in the environment —
    ``reference`` is the escape hatch for differential debugging,
    ``compiled`` opts into the JIT kernel.  An environment opt-in (as
    opposed to an explicit ``engine="compiled"`` argument, which is
    strict) degrades gracefully to ``fast`` when the toolchain is
    absent, with the warn-once ``engine.compiled_fallbacks`` counter.
    """
    env = os.environ.get("REPRO_ENGINE", "fast")
    if env not in ENGINES:
        raise ConfigurationError(
            f"REPRO_ENGINE must be one of {', '.join(ENGINES)}, got {env!r}"
        )
    if env == "compiled":
        from .compiledpath import compiled_available, record_fallback

        ok, reason = compiled_available()
        if not ok:
            record_fallback(f"REPRO_ENGINE=compiled but {reason}")
            return "fast"
    return env  # type: ignore[return-value]

#: Dimension indices inside the remaining-work vectors.
_FLOPS, _L1, _L2, _L3, _DRAM = range(5)
_EPS = 1e-9

_new = object.__new__


@dataclass(frozen=True)
class ActivityInterval:
    """Aggregate machine activity between two consecutive events.

    ``busy_cores`` is an integral count on the intervals the scheduler
    emits, but becomes a *fractional* busy-core-seconds average after
    :meth:`repro.sim.engine.Engine._coarsen` merges adjacent intervals
    (the merged value is ``sum(busy_i * dt_i) / sum(dt_i)``, which
    preserves the busy-core-seconds integral exactly) — hence the
    ``float`` type.
    """

    t_start: float
    t_end: float
    busy_cores: float
    flops: float
    bytes_l1: float
    bytes_l2: float
    bytes_l3: float
    bytes_dram: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class TaskRecord:
    """Where and when one task ran."""

    tid: int
    name: str
    core: int  # -1 for zero-cost join tasks (never occupy a core)
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


#: Field order of one raw interval row (see :attr:`Schedule.raw_intervals`).
_INTERVAL_FIELDS = (
    "t_start",
    "t_end",
    "busy_cores",
    "flops",
    "bytes_l1",
    "bytes_l2",
    "bytes_l3",
    "bytes_dram",
)


class Schedule:
    """Result of scheduling one task graph on one machine.

    Activity intervals exist in two interchangeable representations:
    :attr:`intervals` (a list of :class:`ActivityInterval` objects —
    the stable, ergonomic API) and :attr:`raw_intervals` (plain tuples
    in :data:`_INTERVAL_FIELDS` order — what the fast engine emits,
    without paying a million dataclass constructions).  Either may be
    passed at construction; the other materializes lazily on first
    access.  Bulk consumers (trace coarsening, measurement) read
    :meth:`interval_columns` instead: one ``(k, 8)`` float64 array,
    whatever the schedule was built from.

    Task records follow the same pattern: :attr:`records` (a list of
    :class:`TaskRecord` objects) or ``raw_records`` — the compiled
    engine's ``(tid, core, start, end)`` output arrays plus the
    tid-indexed name table — with the object form materialized lazily.
    The measurement pipeline reads only intervals and stats, so a
    study run never pays the per-task object construction at all.

    The compiled engine goes one step further and hands over its raw
    C-kernel output arrays untouched: ``interval_array`` (a ``(k, 8)``
    float64 ndarray in :data:`_INTERVAL_FIELDS` column order) instead
    of the tuple list, and ``raw_busy`` (``(core, start, end)`` arrays
    of merged per-core busy intervals in global chronological order)
    instead of built timelines.  Converting either to Python objects
    costs more than the C sweep itself, so a run that only reads
    ``stats`` — every benchmark sweep — pays nothing.
    """

    __slots__ = (
        "graph_name",
        "threads",
        "stats",
        "_timelines",
        "_raw_busy",
        "_records",
        "_raw_records",
        "_intervals",
        "_raw_intervals",
        "_interval_array",
        "_record_index",
    )

    def __init__(
        self,
        graph_name: str,
        threads: int,
        records: list[TaskRecord] | None = None,
        timelines: list[CoreTimeline] | None = None,
        stats: RuntimeStats | None = None,
        intervals: list[ActivityInterval] | None = None,
        raw_intervals: list[tuple] | None = None,
        raw_records: tuple | None = None,
        interval_array=None,
        raw_busy: tuple | None = None,
    ):
        if records is None and raw_records is None:
            raise SchedulingError(
                "Schedule needs records or raw_records (or both)"
            )
        if intervals is None and raw_intervals is None and interval_array is None:
            raise SchedulingError(
                "Schedule needs intervals, raw_intervals, or interval_array"
            )
        if timelines is None and raw_busy is None:
            raise SchedulingError("Schedule needs timelines or raw_busy")
        if stats is None:
            raise SchedulingError("Schedule needs stats")
        self.graph_name = graph_name
        self.threads = threads
        self.stats = stats
        self._timelines = timelines
        self._raw_busy = raw_busy
        self._records = records
        self._raw_records = raw_records
        self._intervals = intervals
        self._raw_intervals = raw_intervals
        self._interval_array = interval_array
        self._record_index: dict[int, TaskRecord] | None = None

    @property
    def timelines(self) -> list[CoreTimeline]:
        """Per-core busy timelines (materialized lazily from
        ``raw_busy`` when the compiled engine produced this schedule)."""
        timelines = self._timelines
        if timelines is None:
            core_arr, start_arr, end_arr = self._raw_busy
            busy_of: list[list[tuple[float, float]]] = [
                [] for _ in range(self.threads)
            ]
            for core, bs, be in zip(
                core_arr.tolist(), start_arr.tolist(), end_arr.tolist()
            ):
                busy_of[core].append((bs, be))
            makespan = self.stats.makespan
            timelines = [
                CoreTimeline(core, busy_of[core], makespan)
                for core in range(self.threads)
            ]
            self._timelines = timelines
        return timelines

    @property
    def records(self) -> list[TaskRecord]:
        """Task records as objects (materialized lazily)."""
        records = self._records
        if records is None:
            tids, cores, starts, ends, names = self._raw_records
            records = []
            append = records.append
            new = _new
            for tid, core, start, end in zip(
                tids.tolist(), cores.tolist(), starts.tolist(), ends.tolist()
            ):
                rec = new(TaskRecord)
                d = rec.__dict__
                d["tid"] = tid
                d["name"] = names[tid]
                d["core"] = core
                d["start"] = start
                d["end"] = end
                append(rec)
            self._records = records
        return records

    @property
    def intervals(self) -> list[ActivityInterval]:
        """Activity intervals as objects (materialized lazily)."""
        if self._intervals is None:
            self._intervals = [
                ActivityInterval(*row) for row in self.raw_intervals
            ]
        return self._intervals

    @property
    def raw_intervals(self) -> list[tuple]:
        """Activity intervals as plain ``_INTERVAL_FIELDS``-order
        tuples (materialized lazily from the array or object form)."""
        if self._raw_intervals is None and self._interval_array is not None:
            self._raw_intervals = list(
                map(tuple, self._interval_array.tolist())
            )
            self._interval_array = None
        if self._raw_intervals is None:
            self._raw_intervals = [
                (
                    iv.t_start,
                    iv.t_end,
                    iv.busy_cores,
                    iv.flops,
                    iv.bytes_l1,
                    iv.bytes_l2,
                    iv.bytes_l3,
                    iv.bytes_dram,
                )
                for iv in self._intervals
            ]
        return self._raw_intervals

    def interval_columns(self) -> np.ndarray:
        """Activity intervals as one ``(k, 8)`` float64 array in
        ``_INTERVAL_FIELDS`` column order — the bulk consumers' view.

        The compiled kernel's array is returned as it is (never turned
        into tuples); tuple rows are packed with one ``np.fromiter``.
        """
        if self._interval_array is not None:
            return self._interval_array
        rows = self.raw_intervals
        flat = np.fromiter(chain.from_iterable(rows), np.float64, 8 * len(rows))
        return flat.reshape(len(rows), 8)

    @property
    def makespan(self) -> float:
        """Total simulated wall time."""
        return self.stats.makespan

    def start_order(self) -> list[int]:
        """Task ids sorted by start time, stable over record order.

        Records are appended as tasks complete, and a zero-cost task's
        record follows the one that released it, so this order runs
        every task after its dependencies — the order the numerics
        replay (:mod:`repro.runtime.replay`) follows.
        """
        if self._records is None:
            tids, _, starts, _, _ = self._raw_records
            return tids[np.argsort(starts, kind="stable")].tolist()
        ordered = sorted(self._records, key=lambda rec: rec.start)
        return [rec.tid for rec in ordered]

    def record_for(self, tid: int) -> TaskRecord:
        """O(1) record lookup via a lazily built tid -> record index."""
        index = self._record_index
        if index is None or len(index) != len(self.records):
            index = {rec.tid: rec for rec in self.records}
            self._record_index = index
        try:
            return index[tid]
        except KeyError:
            raise SchedulingError(f"no record for task {tid}") from None


class _Running:
    """Book-keeping for one in-flight task."""

    __slots__ = ("task", "core", "start", "remaining")

    def __init__(self, task: Task, core: int, start: float, remaining: list[float]):
        self.task = task
        self.core = core
        self.start = start
        self.remaining = remaining


class Scheduler:
    """Schedules task graphs on the first *threads* cores of a machine.

    Parameters
    ----------
    machine:
        The platform; supplies core peak flops and cache/DRAM bandwidths.
    threads:
        Worker count — the paper's ``OMP_NUM_THREADS`` knob (§VI-A).
    policy:
        Ready-queue discipline: ``"fifo"`` (OpenMP-like breadth-first
        task queue, default), ``"lifo"`` (work-first/depth-first),
        ``"critical"`` (longest-path-to-sink priority), or ``"steal"``
        (Cilk-style per-core deques: tasks enqueue LIFO on their
        creator's core; idle cores steal the *oldest* task from the
        most loaded victim — the discipline BOTS-era OpenMP runtimes
        approximate for untied tasks).
    engine:
        Event kernel: ``"fast"`` (vectorized, default — see
        :mod:`repro.runtime.fastpath`), ``"reference"`` (the original
        per-event scalar loop, kept as the differential oracle), or
        ``"compiled"`` (the JIT-compiled C sweep — see
        :mod:`repro.runtime.compiledpath`; requires a C toolchain and
        raises :class:`ConfigurationError` here when forced without
        one).  ``None`` resolves via :func:`default_engine`
        (``REPRO_ENGINE`` environment override).
    """

    def __init__(
        self,
        machine: MachineSpec,
        threads: int,
        policy: SchedulePolicy = "fifo",
        engine: SchedulerEngine | None = None,
    ):
        if threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {threads}")
        if threads > machine.cores:
            raise ConfigurationError(
                f"requested {threads} threads but machine {machine.name!r} "
                f"has only {machine.cores} cores"
            )
        if policy not in ("fifo", "lifo", "critical", "steal"):
            raise ConfigurationError(f"unknown policy {policy!r}")
        if engine is None:
            engine = default_engine()
        if engine not in ENGINES:
            raise ConfigurationError(f"unknown engine {engine!r}")
        if engine == "compiled":
            # Explicitly requested (not env-resolved): fail fast rather
            # than degrade, mirroring the forced-shm-transport
            # semantics.  Compile cost itself stays lazy (first run).
            from .compiledpath import compiled_available

            ok, reason = compiled_available()
            if not ok:
                raise ConfigurationError(
                    f"engine 'compiled' requested but unavailable: {reason}"
                )
        self.machine = machine
        self.threads = threads
        self.policy = policy
        self.engine = engine
        # Socket of each worker (socket-major core numbering): the
        # shared LLC is per *socket*, so a dual-socket machine has two
        # independent L3 bandwidth domains.
        core_ids = machine.topology.core_ids()
        self._socket_of = [core_ids[i].socket for i in range(threads)]
        self._num_sockets = len(machine.topology.sockets)
        # Hot-path constants (profiled: per-task spec lookups dominate
        # otherwise — see tools/profile_scheduler.py).
        self._core_peak = machine.core_peak_flops
        self._l1_bw = machine.caches.level("L1").bandwidth_bytes_per_s
        self._l2_bw = machine.caches.level("L2").bandwidth_bytes_per_s

    @property
    def _plan_key(self) -> tuple[float, float, float, float, float]:
        """The machine constants a seat plan depends on (its cache key)."""
        m = self.machine
        return (self._core_peak, self._l1_bw, self._l2_bw, m.l3_bandwidth, m.dram_bandwidth)

    # ---- per-task helpers ---------------------------------------------

    def _remaining_vector(self, cost: TaskCost) -> list[float]:
        return [cost.flops, cost.bytes_l1, cost.bytes_l2, cost.bytes_l3, cost.bytes_dram]

    def _private_rates(self, cost: TaskCost) -> tuple[float, float, float]:
        """(flop, L1-fill, L2-fill) rates — independent of contention."""
        return (cost.efficiency * self._core_peak, self._l1_bw, self._l2_bw)

    def uncontended_duration(self, task: Task) -> float:
        """Duration of *task* when it is alone on the machine — used for
        critical-path metrics and Graham-bound tests."""
        c = task.cost
        if c.is_zero:
            return 0.0
        flop_rate, l1_rate, l2_rate = self._private_rates(c)
        times = [
            c.flops / flop_rate if c.flops else 0.0,
            c.bytes_l1 / l1_rate if c.bytes_l1 else 0.0,
            c.bytes_l2 / l2_rate if c.bytes_l2 else 0.0,
            c.bytes_l3 / self.machine.l3_bandwidth if c.bytes_l3 else 0.0,
            c.bytes_dram / self.machine.dram_bandwidth if c.bytes_dram else 0.0,
        ]
        return max(times)

    # ---- main loop -----------------------------------------------------

    def run(self, graph: TaskGraph) -> Schedule:
        """Simulate *graph* to completion and return the schedule.

        Dispatches to the configured event kernel; all kernels take
        identical scheduling decisions (see ``repro.runtime.fastpath``).
        Accepts a columnar :class:`~repro.runtime.arena.TaskArena` too:
        the fast and compiled engines consume its CSR arrays natively,
        while the reference oracle inflates it to ``Task`` objects
        first.  Scheduling only prices costs; ``compute`` closures never
        run here (numerics replay the schedule afterwards — see
        :mod:`repro.runtime.replay`).
        """
        from .arena import TaskArena

        with trace.span(
            "schedule",
            graph=graph.name,
            tasks=len(graph),
            threads=self.threads,
            engine=self.engine,
            policy=self.policy,
        ):
            if self.engine == "fast":
                from .fastpath import run_fast

                return run_fast(self, graph)
            if self.engine == "compiled":
                from .compiledpath import run_compiled_or_fallback

                return run_compiled_or_fallback(self, graph)
            if isinstance(graph, TaskArena):
                graph = graph.to_graph()
            return self._run_reference(graph)

    def _run_reference(self, graph: TaskGraph) -> Schedule:
        """The original per-event scalar loop — the differential oracle
        for the vectorized kernel.  Kept verbatim; do not optimize."""
        graph.validate()
        n = len(graph)
        indegree = [len(t.deps) for t in graph.tasks]
        completed = [False] * n

        # Priority for the "critical" policy: longest path to any sink.
        priority: list[float] | None = None
        if self.policy == "critical":
            priority = [0.0] * n
            for task in reversed(graph.tasks):
                succs = graph.successors(task.tid)
                below = max((priority[s] for s in succs), default=0.0)
                priority[task.tid] = self.uncontended_duration(task) + below

        ready_fifo: deque[int] = deque()
        ready_lifo: list[int] = []
        ready_heap: list[tuple[float, int]] = []
        # Work-stealing state: one deque per core plus a shared inbox
        # for tasks with no known creator placement.
        core_deques: list[deque[int]] = [deque() for _ in range(self.threads)]
        shared_inbox: deque[int] = deque()
        ready_total = 0

        def push_ready(tid: int) -> None:
            nonlocal ready_total
            if self.policy == "fifo":
                ready_fifo.append(tid)
            elif self.policy == "lifo":
                ready_lifo.append(tid)
            elif self.policy == "critical":
                assert priority is not None
                heapq.heappush(ready_heap, (-priority[tid], tid))
            else:  # steal
                creator = graph.tasks[tid].created_by
                home = task_core.get(creator) if creator is not None else None
                if home is None:
                    shared_inbox.append(tid)
                else:
                    core_deques[home].appendleft(tid)  # LIFO top
                ready_total += 1

        def pop_ready() -> int:
            if self.policy == "fifo":
                return ready_fifo.popleft()
            if self.policy == "lifo":
                return ready_lifo.pop()
            return heapq.heappop(ready_heap)[1]

        def pop_for_core(core: int) -> int:
            """Steal policy: own deque first, then the inbox, then the
            oldest task of the most loaded victim."""
            nonlocal ready_total, steals
            ready_total -= 1
            if core_deques[core]:
                return core_deques[core].popleft()
            if shared_inbox:
                return shared_inbox.popleft()
            victim = max(range(self.threads), key=lambda v: len(core_deques[v]))
            steals += 1
            return core_deques[victim].pop()  # FIFO end: oldest task

        def ready_count() -> int:
            if self.policy == "steal":
                return ready_total
            return len(ready_fifo) + len(ready_lifo) + len(ready_heap)

        records: list[TaskRecord] = []
        intervals: list[ActivityInterval] = []
        timelines = [CoreTimeline(core) for core in range(self.threads)]
        free_cores: list[int] = list(range(self.threads - 1, -1, -1))
        running: dict[int, _Running] = {}  # core -> running task
        task_core: dict[int, int] = {}  # tid -> core it ran on (for affinity)
        t = 0.0
        done_count = 0
        migrations = 0
        steals = 0

        def complete(tid: int, when: float) -> None:
            """Mark done and cascade zero-cost successors."""
            nonlocal done_count
            completed[tid] = True
            done_count += 1
            for succ in graph.successors(tid):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    stask = graph.tasks[succ]
                    if stask.cost.is_zero:
                        records.append(TaskRecord(succ, stask.name, -1, when, when))
                        complete(succ, when)
                    else:
                        push_ready(succ)

        # Seed: sources (zero-cost sources cascade immediately).
        for task in graph.sources():
            if task.cost.is_zero:
                records.append(TaskRecord(task.tid, task.name, -1, 0.0, 0.0))
                complete(task.tid, 0.0)
            else:
                push_ready(task.tid)

        dram_bw = self.machine.dram_bandwidth
        l3_bw = self.machine.l3_bandwidth

        while done_count < n:
            # Dispatch ready tasks onto free cores.
            while free_cores and ready_count():
                core = free_cores[-1]
                if self.policy == "steal":
                    tid = pop_for_core(core)
                    task = graph.tasks[tid]
                else:
                    tid = pop_ready()
                    task = graph.tasks[tid]
                    # Tied tasks prefer their creator's core when available.
                    if not task.untied and task.created_by is not None:
                        want = task_core.get(task.created_by)
                        if want is not None and want in free_cores:
                            core = want
                        elif want is not None:
                            steals += 1
                free_cores.remove(core)
                if (
                    task.created_by is not None
                    and task_core.get(task.created_by) is not None
                    and task_core[task.created_by] != core
                ):
                    migrations += 1
                running[core] = _Running(
                    task, core, t, self._remaining_vector(task.cost)
                )
                task_core[tid] = core

            if not running:
                if done_count < n:
                    raise SchedulingError(
                        f"deadlock: {n - done_count} tasks left but nothing "
                        f"ready or running in graph {graph.name!r}"
                    )
                break

            # Shared-resource user counts.  L3 bandwidth is shared per
            # socket; the memory channels are shared machine-wide.
            l3_users_by_socket = [0] * self._num_sockets
            dram_users = 0
            for core, r in running.items():
                if r.remaining[_L3] > _EPS:
                    l3_users_by_socket[self._socket_of[core]] += 1
                if r.remaining[_DRAM] > _EPS:
                    dram_users += 1
            dram_share = dram_bw / dram_users if dram_users else 0.0

            # Per-task, per-dimension rates and next event time.
            dt = float("inf")
            rates: dict[int, list[float]] = {}
            for core, r in running.items():
                flop_rate, l1_rate, l2_rate = self._private_rates(r.task.cost)
                socket_users = l3_users_by_socket[self._socket_of[core]]
                l3_share = l3_bw / socket_users if socket_users else 0.0
                rate = [flop_rate, l1_rate, l2_rate, l3_share, dram_share]
                rates[core] = rate
                for dim in range(5):
                    rem = r.remaining[dim]
                    if rem > _EPS:
                        if rate[dim] <= 0:
                            raise SchedulingError(
                                f"task {r.task.name!r} has demand in dim {dim} "
                                f"but zero service rate"
                            )
                        dt = min(dt, rem / rate[dim])
            if not (dt < float("inf")):
                # Every running task has (numerically) nothing left.
                dt = 0.0

            # Advance time by dt, accumulating activity.
            flops = b1 = b2 = b3 = bd = 0.0
            finished: list[int] = []
            for core, r in running.items():
                rate = rates[core]
                deltas = [
                    min(r.remaining[dim], rate[dim] * dt) for dim in range(5)
                ]
                flops += deltas[_FLOPS]
                b1 += deltas[_L1]
                b2 += deltas[_L2]
                b3 += deltas[_L3]
                bd += deltas[_DRAM]
                for dim in range(5):
                    r.remaining[dim] -= deltas[dim]
                    if r.remaining[dim] <= _EPS:
                        r.remaining[dim] = 0.0
                if all(rem == 0.0 for rem in r.remaining):
                    finished.append(core)

            if dt > 0:
                intervals.append(
                    ActivityInterval(t, t + dt, len(running), flops, b1, b2, b3, bd)
                )
            t += dt

            if not finished and dt == 0.0:
                raise SchedulingError(
                    "scheduler made no progress (dt == 0 with no completions)"
                )

            for core in finished:
                r = running.pop(core)
                records.append(TaskRecord(r.task.tid, r.task.name, core, r.start, t))
                timelines[core].add_busy(r.start, t)
                free_cores.append(core)
                complete(r.task.tid, t)

        for tl in timelines:
            tl.close(t)

        _REF_EVENTS.add(len(intervals))
        stats = RuntimeStats.from_run(
            makespan=t,
            timelines=timelines,
            task_count=n,
            threads=self.threads,
            migrations=migrations,
            steals=steals,
        )
        return Schedule(
            graph_name=graph.name,
            threads=self.threads,
            records=records,
            intervals=intervals,
            timelines=timelines,
            stats=stats,
        )
