"""Discrete-event task scheduler with shared-resource contention.

This is the simulated analogue of the OpenMP runtime the paper runs on
(BOTS tasking + work sharing, §IV-B/C).  ``P`` worker cores run a
:class:`~repro.runtime.arena.TaskArena`; each running task progresses
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
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Literal

import numpy as np

from ..machine.specs import MachineSpec
from ..observability import trace
from ..observability.metrics import counter
from ..util.errors import ConfigurationError, SchedulingError
from .arena import TaskArena
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
    """The event kernel a run gets when it names none — the only place
    an unnamed engine is resolved.

    The platform decides, never a user-set option: ``"compiled"`` when
    :func:`~repro.runtime.compiledpath.compiled_available` finds a C
    toolchain, else ``"fast"`` (the same numbers, bit for bit), with a
    warn-once and a tick of ``engine.compiled_fallbacks``.  A default
    degrades; an explicit ``engine="compiled"`` stays strict
    (:class:`Scheduler` raises :class:`ConfigurationError` without a
    toolchain).
    """
    from .compiledpath import compiled_available, record_fallback

    ok, reason = compiled_available()
    if ok:
        return "compiled"
    record_fallback(reason)
    return "fast"


#: Dimension indices inside the remaining-work vectors.
_FLOPS, _L1, _L2, _L3, _DRAM = range(5)
_EPS = 1e-9
#: Every kernel's error for an event that retires no seat entry and
#: completes no task (the sweep would repeat it for ever).
_NO_PROGRESS = (
    "scheduler made no progress (an event retired no entry and completed no task)"
)


@dataclass(frozen=True)
class ActivityInterval:
    """Aggregate machine activity between two consecutive events.

    ``busy_cores`` is an integral count on the intervals the scheduler
    emits, but its bucket column becomes a *fractional* busy-core-seconds
    average after :meth:`repro.sim.engine.Engine._coarsen` merges
    adjacent intervals (the merged value is ``sum(busy_i * dt_i) /
    sum(dt_i)``, which preserves the busy-core-seconds integral exactly)
    — hence the ``float`` type.
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


class Schedule:
    """Result of scheduling one task graph on one machine.

    Every event kernel emits the same columns, bit for bit: the output
    arrays of the C kernel (:mod:`repro.runtime._sweep_src`).

    * ``names`` — the tid-indexed task-name table;
    * ``rec_tid``/``rec_core`` (int64) and ``rec_start``/``rec_end``
      (float64) — one record per task in retirement order, core ``-1``
      for a zero-cost task;
    * ``iv_rows`` — the ``(k, 8)`` float64 activity intervals, one
      column per :class:`ActivityInterval` field, in field order;
    * ``busy_core`` (int64) and ``busy_start``/``busy_end`` (float64) —
      each core's merged busy spans, in the order they opened;
    * ``stats``.

    :attr:`records`, :attr:`intervals` and :attr:`timelines` are object
    views built on first access.  Bulk consumers read the columns
    (:meth:`interval_columns`, :meth:`start_order`), so a study run
    never builds a per-task object.
    """

    __slots__ = (
        "graph_name",
        "threads",
        "names",
        "rec_tid",
        "rec_core",
        "rec_start",
        "rec_end",
        "iv_rows",
        "busy_core",
        "busy_start",
        "busy_end",
        "stats",
        "_records",
        "_intervals",
        "_timelines",
    )

    def __init__(
        self,
        graph_name: str,
        threads: int,
        names: list[str],
        rec_tid: np.ndarray,
        rec_core: np.ndarray,
        rec_start: np.ndarray,
        rec_end: np.ndarray,
        iv_rows: np.ndarray,
        busy_core: np.ndarray,
        busy_start: np.ndarray,
        busy_end: np.ndarray,
        stats: RuntimeStats,
    ):
        self.graph_name = graph_name
        self.threads = threads
        self.names = names
        self.rec_tid = rec_tid
        self.rec_core = rec_core
        self.rec_start = rec_start
        self.rec_end = rec_end
        self.iv_rows = iv_rows
        self.busy_core = busy_core
        self.busy_start = busy_start
        self.busy_end = busy_end
        self.stats = stats
        self._records: list[TaskRecord] | None = None
        self._intervals: list[ActivityInterval] | None = None
        self._timelines: list[CoreTimeline] | None = None

    @property
    def timelines(self) -> list[CoreTimeline]:
        """Per-core busy timelines (built on first access)."""
        if self._timelines is None:
            timelines = [
                CoreTimeline(core, [], self.makespan) for core in range(self.threads)
            ]
            cols = (self.busy_core, self.busy_start, self.busy_end)
            for core, start, end in zip(*(c.tolist() for c in cols)):
                timelines[core].busy.append((start, end))
            self._timelines = timelines
        return self._timelines

    @property
    def records(self) -> list[TaskRecord]:
        """Task records as objects (built on first access)."""
        if self._records is None:
            names = self.names
            cols = (self.rec_tid, self.rec_core, self.rec_start, self.rec_end)
            self._records = [
                TaskRecord(tid, names[tid], core, start, end)
                for tid, core, start, end in zip(*(c.tolist() for c in cols))
            ]
        return self._records

    @property
    def intervals(self) -> list[ActivityInterval]:
        """Activity intervals as objects (built on first access)."""
        if self._intervals is None:
            self._intervals = [
                ActivityInterval(*row) for row in self.iv_rows.tolist()
            ]
        return self._intervals

    def interval_columns(self) -> np.ndarray:
        """Activity intervals as one ``(k, 8)`` float64 array, a column
        per :class:`ActivityInterval` field — the bulk consumers' view."""
        return self.iv_rows

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
        return self.rec_tid[np.argsort(self.rec_start, kind="stable")].tolist()

    def record_for(self, tid: int) -> TaskRecord:
        """The record of task *tid*."""
        rows = np.flatnonzero(self.rec_tid == tid)
        if not len(rows):
            raise SchedulingError(f"no record for task {tid}")
        return self.records[rows[0]]


def _rows(rows: list[tuple], width: int) -> np.ndarray:
    """Row tuples as one ``(len(rows), width)`` float64 array."""
    flat = np.fromiter(chain.from_iterable(rows), np.float64, width * len(rows))
    return flat.reshape(len(rows), width)


def schedule_of_rows(
    arena: TaskArena, threads: int, makespan: float, migrations: int,
    steals: int, records: list[tuple], intervals: list[tuple],
    busy_core: list[int], busy_start: list[float], busy_end: list[float],
) -> Schedule:
    """A Python kernel's row lists as the C kernel's columns: records
    ``(tid, core, start, end)``, 8-field interval rows and busy rows."""
    tid, core, start, end = np.ascontiguousarray(_rows(records, 4).T)
    busy = (
        np.array(busy_core, dtype=np.int64),
        np.array(busy_start, dtype=np.float64),
        np.array(busy_end, dtype=np.float64),
    )
    stats = RuntimeStats.from_busy(
        makespan, *busy, len(arena), threads, migrations, steals
    )
    return Schedule(
        arena.name, threads, arena.names_list(), tid.astype(np.int64),
        core.astype(np.int64), start, end, _rows(intervals, 8), *busy, stats,
    )


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
        Event kernel: ``"reference"`` (:meth:`_run_reference`, the
        sweep as plain scalar code — the spec), ``"fast"`` (an
        optimised Python transcription of it — see
        :mod:`repro.runtime.fastpath`) or ``"compiled"`` (its C
        transcription, JIT-compiled — see
        :mod:`repro.runtime.compiledpath`; requires a C toolchain and
        raises :class:`ConfigurationError` here when named without
        one).  All three produce the same schedule bit for bit.
        ``None`` lets the platform pick via :func:`default_engine`.
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
        elif engine not in ENGINES:
            raise ConfigurationError(f"unknown engine {engine!r}")
        elif engine == "compiled":
            # Explicitly named (not the platform default): a kernel the
            # caller asked for by name fails fast rather than degrade.
            # Compile cost itself stays lazy (first run).
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

    def _duration(
        self, flops: float, eff: float, b1: float, b2: float, b3: float, bd: float
    ) -> float:
        """Uncontended duration of one task's cost vector."""
        if flops == 0 and b1 == 0 and b2 == 0 and b3 == 0 and bd == 0:
            return 0.0
        times = [
            flops / (eff * self._core_peak) if flops else 0.0,
            b1 / self._l1_bw if b1 else 0.0,
            b2 / self._l2_bw if b2 else 0.0,
            b3 / self.machine.l3_bandwidth if b3 else 0.0,
            bd / self.machine.dram_bandwidth if bd else 0.0,
        ]
        return max(times)

    def uncontended_duration(self, task) -> float:
        """Duration of *task* (anything with a ``cost``) when it is alone
        on the machine — used for critical-path metrics and
        Graham-bound tests."""
        c = task.cost
        return self._duration(
            c.flops, c.efficiency, c.bytes_l1, c.bytes_l2, c.bytes_l3, c.bytes_dram
        )

    # ---- main loop -----------------------------------------------------

    def run(self, arena: TaskArena) -> Schedule:
        """Simulate *arena* to completion and return the schedule.

        Dispatches to the configured event kernel; every kernel
        returns the same schedule, bit for bit.
        Scheduling only prices costs; numerics run afterwards, in an
        order the schedule proves valid (see :mod:`repro.runtime.replay`).
        """
        with trace.span(
            "schedule",
            graph=arena.name,
            tasks=len(arena),
            threads=self.threads,
            policy=self.policy,
        ) as span:
            ran = self.engine
            if ran == "compiled":
                from .compiledpath import run_compiled_or_fallback

                schedule, ran = run_compiled_or_fallback(self, arena)
            elif ran == "fast":
                from .fastpath import run_fast

                schedule = run_fast(self, arena)
            else:
                schedule = self._run_reference(arena)
            # Set after dispatch: a run-time JIT fallback reads "fast".
            span.set(engine=ran)
            return schedule

    def _reference_priorities(self, arena: TaskArena) -> list[float]:
        """The ``critical`` policy's priorities on the reference path:
        longest uncontended path from each task to any sink."""
        duration = self._duration
        costs = list(
            zip(
                arena.flops.tolist(),
                arena.efficiency.tolist(),
                arena.bytes_l1.tolist(),
                arena.bytes_l2.tolist(),
                arena.bytes_l3.tolist(),
                arena.bytes_dram.tolist(),
            )
        )
        successors = arena.successors_lists()
        priority = [0.0] * len(arena)
        for tid in range(len(arena) - 1, -1, -1):
            below = max((priority[s] for s in successors[tid]), default=0.0)
            priority[tid] = duration(*costs[tid]) + below
        return priority

    def _run_reference(self, arena: TaskArena) -> Schedule:
        """The event sweep as plain scalar code: the spec the ``fast``
        and ``compiled`` kernels transcribe, bit for bit.

        Running tasks hold up to five seat entries, flat-indexed
        ``core * 5 + dim``.  An entry stores its absolute exhaust time
        ``tt``, that time less ``EPS / rate`` (``ta``: an entry whose
        remaining work is within EPS at an event retires with it), its
        rate, and the work and time at its last pricing.  Private
        entries (compute, L1, L2) are priced once at dispatch from the
        task's cost columns; shared ones (per-socket L3, machine-wide
        DRAM) wait on ``unseated`` until the dispatch batch is done and
        are repriced whenever their user count changes.  An event lands
        on the smallest ``tt``.  Its interval row credits ``rate_sum *
        dt`` per dimension plus, for every entry exhausting at exactly
        that time, the work-space correction ``demand - rate * (t -
        seat)``, so each task's demand is conserved; an event that
        retires no entry and completes no task raises.  Every float
        expression keeps the operand order of ``_sweep_src.py``, and the
        outputs are the C kernel's: a ``(tid, core, start, end)`` row
        per task, interval rows, and busy rows merged through each
        core's last row index (:func:`schedule_of_rows`).
        """
        arena.validate()
        n = len(arena)
        threads = self.threads
        policy = self.policy
        socket_of = self._socket_of
        num_sockets = self._num_sockets
        core_peak, l1_bw, l2_bw = self._core_peak, self._l1_bw, self._l2_bw
        l3_bw = self.machine.l3_bandwidth
        dram_bw = self.machine.dram_bandwidth
        inf = float("inf")

        names = arena.names_list()
        efficiency = arena.efficiency.tolist()
        demands = list(
            zip(
                arena.flops.tolist(),
                arena.bytes_l1.tolist(),
                arena.bytes_l2.tolist(),
                arena.bytes_l3.tolist(),
                arena.bytes_dram.tolist(),
            )
        )
        untied = arena.untied.tolist()
        created = arena.created_by.tolist()  # creator tid, or -1
        successors = arena.successors_lists()
        indegree = arena.dep_counts.tolist()
        priority = self._reference_priorities(arena) if policy == "critical" else None

        # ---- ready queues ----------------------------------------------
        ready_fifo: deque[int] = deque()
        ready_lifo: list[int] = []
        ready_heap: list[tuple[float, int]] = []
        # Work stealing: one deque per core plus a shared inbox for
        # tasks whose creator has not run.
        core_deques: list[deque[int]] = [deque() for _ in range(threads)]
        shared_inbox: deque[int] = deque()
        task_core = [-1] * n  # tid -> core it ran on
        migrations = 0
        steals = 0

        def push_ready(tid: int) -> None:
            if policy == "fifo":
                ready_fifo.append(tid)
            elif policy == "lifo":
                ready_lifo.append(tid)
            elif policy == "critical":
                heapq.heappush(ready_heap, (-priority[tid], tid))
            else:
                creator = created[tid]
                home = task_core[creator] if creator >= 0 else -1
                if home < 0:
                    shared_inbox.append(tid)
                else:
                    core_deques[home].appendleft(tid)  # LIFO top

        def ready_count() -> int:
            waiting = len(ready_fifo) + len(ready_lifo) + len(ready_heap)
            return waiting + len(shared_inbox) + sum(map(len, core_deques))

        def pop_ready(core: int) -> int:
            """The next task for *core*.  Stealing takes the core's own
            deque first, then the inbox, then the oldest task of the
            first most loaded victim."""
            nonlocal steals
            if policy == "fifo":
                return ready_fifo.popleft()
            if policy == "lifo":
                return ready_lifo.pop()
            if policy == "critical":
                return heapq.heappop(ready_heap)[1]
            if core_deques[core]:
                return core_deques[core].popleft()
            if shared_inbox:
                return shared_inbox.popleft()
            victim = max(range(threads), key=lambda v: len(core_deques[v]))
            steals += 1
            return core_deques[victim].pop()

        # ---- seat entries and shares -----------------------------------
        tt = [inf] * (threads * 5)  # absolute exhaust time
        ta = [inf] * (threads * 5)  # tt - EPS / rate
        rate_of = [0.0] * (threads * 5)
        demand_of = [0.0] * (threads * 5)  # work left at the last pricing
        seat_of = [0.0] * (threads * 5)  # time of the last pricing
        alive = [0] * threads  # unexhausted entries of the core's task
        start_of = [0.0] * threads
        rate_sum = [0.0] * 5  # total rate of the live entries per dim
        dim_users = [0] * 5
        l3_users = [0] * num_sockets
        seated3 = [0] * num_sockets
        seated4 = 0
        share3 = [0.0] * num_sockets
        share4 = 0.0
        unseated: list[tuple[int, int, float]] = []
        shares_dirty = False
        pending: list[int] = []  # cores whose task has no entry left

        def zero_rate(tid: int, dim: int) -> SchedulingError:
            return SchedulingError(
                f"task {names[tid]!r} has demand in dim {dim} but zero service rate"
            )

        def exhaust_entry(core: int, dim: int) -> None:
            nonlocal seated4, shares_dirty
            e = core * 5 + dim
            tt[e] = inf
            ta[e] = inf
            if dim < 3:
                rate_sum[dim] -= rate_of[e]
                dim_users[dim] -= 1
                if dim_users[dim] == 0:
                    rate_sum[dim] = 0.0  # kill float residue
            elif dim == 3:
                sock = socket_of[core]
                dim_users[3] -= 1
                l3_users[sock] -= 1
                seated3[sock] -= 1
                shares_dirty = True
            else:
                dim_users[4] -= 1
                seated4 -= 1
                shares_dirty = True
            alive[core] -= 1
            if alive[core] == 0:
                pending.append(core)

        def price(core: int, dim: int, work: float, rate: float, now: float) -> None:
            e = core * 5 + dim
            texp = now + work / rate
            tt[e] = texp
            rate_of[e] = rate
            ta[e] = texp - _EPS / rate
            demand_of[e] = work
            seat_of[e] = now

        def reseat(core: int, dim: int, rate: float, now: float) -> None:
            """Reprice a seated shared entry at its new share."""
            e = core * 5 + dim
            if tt[e] == inf:
                return
            rem = (tt[e] - now) * rate_of[e]
            if rem <= _EPS:  # sub-EPS residue: retire it now
                exhaust_entry(core, dim)
                return
            if rate <= 0.0:
                raise zero_rate(running[core], dim)
            price(core, dim, rem, rate, now)

        def refresh_shares(now: float) -> None:
            """Recompute the shares after a user-count change, reprice
            the seated entries, then seat the unseated ones, until no
            count changes."""
            nonlocal share4, seated4, shares_dirty
            while True:
                shares_dirty = False
                batch = unseated[:]
                unseated.clear()
                new4 = dram_bw / dim_users[4] if dim_users[4] else 0.0
                if new4 != share4:
                    share4 = new4
                    if seated4:
                        for core in running:
                            reseat(core, _DRAM, new4, now)
                for sock in range(num_sockets):
                    new3 = l3_bw / l3_users[sock] if l3_users[sock] else 0.0
                    if new3 != share3[sock]:
                        share3[sock] = new3
                        if seated3[sock]:
                            for core in running:
                                if socket_of[core] == sock:
                                    reseat(core, _L3, new3, now)
                for core, dim, work in batch:
                    if dim == _DRAM:
                        rate = share4
                        seated4 += 1
                    else:
                        rate = share3[socket_of[core]]
                        seated3[socket_of[core]] += 1
                    if rate <= 0.0:
                        raise zero_rate(running[core], dim)
                    price(core, dim, work, rate, now)
                if not shares_dirty:
                    break
            rate_sum[_DRAM] = dim_users[_DRAM] * share4
            s3 = 0.0
            for sock in range(num_sockets):
                s3 += l3_users[sock] * share3[sock]
            rate_sum[_L3] = s3

        # ---- completions ------------------------------------------------
        records: list[tuple[int, int, float, float]] = []  # tid, core, start, end
        intervals: list[tuple] = []
        busy_core: list[int] = []
        busy_start: list[float] = []
        busy_end: list[float] = []
        last_busy = [-1] * threads  # index of each core's last busy row
        free_cores = list(range(threads - 1, -1, -1))
        running: dict[int, int] = {}  # core -> tid, in dispatch order
        t = 0.0
        done = 0

        def cascade(root: int, when: float) -> int:
            """Release *root*'s successors.  A zero-cost one completes at
            once and is expanded before the next sibling (pre-order, on an
            explicit stack).  Returns 1 + the zero-cost tasks completed."""
            count = 1
            stack = [iter(successors[root])]
            while stack:
                for succ in stack[-1]:
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        if not any(demands[succ]):
                            records.append((succ, -1, when, when))
                            count += 1
                            stack.append(iter(successors[succ]))
                            break
                        push_ready(succ)
                else:
                    stack.pop()
            return count

        for tid in [tid for tid in range(n) if indegree[tid] == 0]:
            if not any(demands[tid]):
                records.append((tid, -1, 0.0, 0.0))
                done += cascade(tid, 0.0)
            else:
                push_ready(tid)

        while done < n:
            # Dispatch ready tasks onto free cores.
            while free_cores and ready_count():
                core = free_cores[-1]
                tid = pop_ready(core)
                creator = created[tid]
                if policy != "steal" and not untied[tid] and creator >= 0:
                    # A tied task prefers its creator's core.
                    want = task_core[creator]
                    if want >= 0:
                        if want in free_cores:
                            core = want
                        else:
                            steals += 1
                free_cores.remove(core)
                if creator >= 0 and task_core[creator] >= 0 and task_core[creator] != core:
                    migrations += 1
                task_core[tid] = core
                running[core] = tid
                start_of[core] = t
                f, b1, b2, b3, bd = demands[tid]
                entries = 0
                for dim, work, rate in (
                    (_FLOPS, f, efficiency[tid] * core_peak),
                    (_L1, b1, l1_bw),
                    (_L2, b2, l2_bw),
                ):
                    if work > _EPS:
                        if rate <= 0.0:
                            raise zero_rate(tid, dim)
                        dur = work / rate
                        e = core * 5 + dim
                        rate_of[e] = rate
                        tt[e] = t + dur
                        ta[e] = t + (dur - _EPS / rate)
                        demand_of[e] = work
                        seat_of[e] = t
                        rate_sum[dim] += rate
                        dim_users[dim] += 1
                        entries += 1
                for dim, work in ((_L3, b3), (_DRAM, bd)):
                    if work > _EPS:
                        unseated.append((core, dim, work))
                        dim_users[dim] += 1
                        if dim == _L3:
                            l3_users[socket_of[core]] += 1
                        shares_dirty = True
                        entries += 1
                alive[core] = entries
                if entries == 0:  # every demand within EPS
                    pending.append(core)

            if not running:
                raise SchedulingError(
                    f"deadlock: {n - done} tasks left but nothing "
                    f"ready or running in graph {arena.name!r}"
                )
            if shares_dirty:
                refresh_shares(t)

            # Next event: the smallest true exhaust time.
            t_next = min(tt)
            if t_next == inf:
                if not pending:
                    raise SchedulingError(_NO_PROGRESS)
            else:
                dt = t_next - t
                t_prev = t
                if dt > 0.0:
                    busy = len(running)
                    credit = [rate_sum[dim] * dt for dim in range(5)]
                corr = [0.0] * 5
                retired = 0
                t = t_next
                for e in range(threads * 5):
                    if ta[e] <= t_next:
                        core, dim = divmod(e, 5)
                        if tt[e] == t_next:
                            corr[dim] += demand_of[e] - rate_of[e] * (t_next - seat_of[e])
                        exhaust_entry(core, dim)
                        retired += 1
                if not retired and not pending:
                    raise SchedulingError(_NO_PROGRESS)
                if dt > 0.0:
                    intervals.append(
                        (t_prev, t_next, busy, *(credit[d] + corr[d] for d in range(5)))
                    )

            # Retire finished tasks in dispatch order.
            if pending:
                finished = [core for core in running if core in pending]
                pending.clear()
                for core in finished:
                    tid = running.pop(core)
                    start = start_of[core]
                    records.append((tid, core, start, t))
                    if t > start:
                        lb = last_busy[core]
                        if lb >= 0 and start - busy_end[lb] <= 1e-12:
                            busy_end[lb] = t
                        else:
                            last_busy[core] = len(busy_core)
                            busy_core.append(core)
                            busy_start.append(start)
                            busy_end.append(t)
                    free_cores.append(core)
                    done += cascade(tid, t)

        _REF_EVENTS.add(len(intervals))
        return schedule_of_rows(
            arena, threads, t, migrations, steals,
            records, intervals, busy_core, busy_start, busy_end,
        )
