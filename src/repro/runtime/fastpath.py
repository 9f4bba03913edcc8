"""Incremental discrete-event kernel — the scheduler's fast engine.

``engine="reference"`` (:meth:`Scheduler._run_reference`) is the
event sweep written as plain scalar code: the spec.  This module and
the C kernel (:mod:`repro.runtime.compiledpath`) are optimised
transcriptions of it, and all three emit the same
:class:`~repro.runtime.scheduler.Schedule` columns bit for bit:
records, interval rows, busy rows and statistics
(:func:`repro.testing.oracle.compare_schedules`).  Like the spec, this
kernel appends those rows to plain lists and packs them into the C
kernel's arrays once, after its loop.  It keeps the spec's state and
float expressions, in the same operand order, and adds only what makes
Python fast:

* a per-``(arena, machine)`` **seat plan**, cached on the arena's plan
  bundle (:mod:`repro.runtime.plans`): for every task, the private
  dimensions above EPS with their precomputed ``(rate, d/rate,
  d/rate - EPS/rate)`` and the shared dimensions with their work.  The
  spec evaluates the same expressions at dispatch; tasks with equal
  cost rows share one tuple.
* skipped bookkeeping where it cannot fire: creator affinity when no
  task has a creator, the membership filter when every running task
  finished, the recursion into zero-cost successors when there is
  none (a cascade that has one runs on an explicit stack, in the
  spec's pre-order).
* a fused single-socket share refresh (the paper's machine: one L3
  domain, both shared dims repriced in one pass over ``running``),
  state-identical to the spec's per-socket loop, and an event scan
  that inlines the entry retirement.

Any drift from the spec is a bug that the differential tests and the
golden digests (``tests/runtime/reference_golden.json``) exist to
catch.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from ..observability import trace
from ..observability.metrics import counter
from ..util.errors import SchedulingError
from .arena import TaskArena
from .plans import PlanBundle, plan_bundle
from .scheduler import _EPS, _NO_PROGRESS, Schedule, schedule_of_rows

#: Contention sweeps performed by the vectorized kernel.  Tallied once
#: per run from ``len(intervals)`` — never inside the hot loop.
_SWEEPS = counter(
    "engine.sweeps",
    description="contention intervals swept by the vectorized event kernel",
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .arena import TaskArena
    from .scheduler import Scheduler

__all__ = ["run_fast"]

_INF = float("inf")

#: Seat plan of one task:
#: ``(private, shared, alive0, affinity)`` where *private* is a tuple
#: of ``(dim, rate, dur, adj_dur, d)`` for nonzero private dims
#: (``dur = d/rate``, ``adj_dur = dur - EPS/rate``), *shared* a tuple
#: of ``(dim, work)`` for nonzero L3/DRAM demands, and *affinity* True
#: when the task is tied AND has a creator (the reference's exact
#: creator-affinity gate).  *alive0* packs the entry count with the
#: rare cases so the dispatch hot path branches once: ``> 0`` is the
#: live entry count, ``0`` means all demands sub-EPS (finish at next
#: event), ``< 0`` means dim ``-1 - alive0`` has demand but a
#: non-positive service rate (raise lazily at dispatch, matching the
#: reference).


class _GraphPlan:
    """Cached per-(arena, machine) lowering of task costs to seat plans,
    derived from the arena's plan bundle (:func:`_seat_plan`)."""

    __slots__ = (
        "key",          # (core_peak, l1_bw, l2_bw, l3_bw, dram_bw)
        "plans",        # list of per-task seat plans (see above)
        "zeros",        # list[bool]: task cost exactly zero (is_zero)
        "seeds",        # tids with no dependencies, in task order
        "indeg0",       # initial indegree per task (copied per run)
        "created",      # per-task creator tid or None (tid-indexed)
        "any_created",  # any task has a creator (affinity can fire)
        "zero_seed",    # any source is zero-cost (cascades interleave)
    )

    def __init__(self, key):
        self.key = key
        self.plans: list = []
        self.zeros: list = []
        self.seeds: list = []
        self.indeg0: list = []
        self.created: list = []
        self.any_created = False
        self.zero_seed = False


def _distinct_rows(arena: TaskArena, affinity: np.ndarray):
    """``(first, inverse)`` over the distinct ``(cost row, affinity)``
    keys, which determine a task's seat plan.  Rows group by a 64-bit
    mix of their bits; if any group holds differing rows (a hash
    collision) every task gets its own group, so grouping is exact."""
    fields = ("flops", "efficiency", "bytes_l1", "bytes_l2", "bytes_l3", "bytes_dram")
    cols = [getattr(arena, f) for f in fields] + [affinity.astype(np.float64)]
    bits = np.stack(cols, axis=1).view(np.uint64)
    h = np.zeros(len(bits), dtype=np.uint64)
    for col in bits.T:
        h = (h ^ col) * np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(29)
    _, first, inverse = np.unique(h, return_index=True, return_inverse=True)
    if not np.array_equal(bits[first[inverse]], bits):
        first = inverse = np.arange(len(bits))
    return first, inverse


def _entries(ptr: np.ndarray, cols, rows: np.ndarray) -> list[tuple]:
    """Per-row tuples of *rows*' CSR entries, zipped across *cols*."""
    lo = ptr[rows]
    counts = ptr[rows + 1] - lo
    bounds = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    idx = np.repeat(lo - bounds[:-1], counts) + np.arange(bounds[-1])
    flat = list(zip(*(col[idx].tolist() for col in cols)))
    b = bounds.tolist()
    return [tuple(flat[b[k] : b[k + 1]]) for k in range(len(rows))]


def _seat_plan(arena: TaskArena, cp: PlanBundle) -> _GraphPlan:
    """The fast kernel's seat tuples, derived from *arena*'s plan bundle
    (so both kernels seat identical floats).  Tasks with equal cost rows
    share one tuple: the paper matrix's ~2.7e5 tasks have 432 distinct
    rows, so the cached plan costs one pointer per task."""
    gp = _GraphPlan(cp.key)
    first, inverse = _distinct_rows(arena, cp.affinity)
    priv_cols = (cp.priv_dim, cp.priv_rate, cp.priv_dur, cp.priv_adj, cp.priv_dem)
    distinct = list(
        zip(
            _entries(cp.priv_ptr, priv_cols, first),
            _entries(cp.shr_ptr, (cp.shr_dim, cp.shr_work), first),
            cp.alive0[first].tolist(),
            cp.affinity[first].astype(bool).tolist(),
        )
    )
    gp.plans = [distinct[k] for k in inverse.tolist()]
    gp.zeros = cp.zeros.astype(bool).tolist()
    gp.seeds = cp.seeds.tolist()
    gp.indeg0 = cp.indeg0.tolist()
    gp.created = arena.created_by_list()
    gp.any_created = cp.any_created
    gp.zero_seed = bool(cp.zeros[cp.seeds].any())
    return gp


def _plans_for(sched: "Scheduler", arena: TaskArena) -> tuple[PlanBundle, _GraphPlan, bool]:
    """``(bundle, seat plan, cached)`` for *arena* on this scheduler's
    machine, built on a miss."""
    cp, _ = plan_bundle(arena, sched._plan_key)
    gp = cp.seat_plan
    if gp is not None:
        return cp, gp, True
    gp = cp.seat_plan = _seat_plan(arena, cp)
    return cp, gp, False


def run_fast(sched: "Scheduler", arena: "TaskArena") -> Schedule:
    """Simulate *arena* with the incremental event kernel: an
    optimised transcription of :meth:`Scheduler._run_reference`, bit
    for bit (see the module docstring).
    """
    arena.validate()
    n = len(arena)
    policy = sched.policy
    threads = sched.threads
    socket_of = sched._socket_of
    num_sockets = sched._num_sockets
    multi_socket = num_sockets > 1
    l3_bw = sched.machine.l3_bandwidth
    dram_bw = sched.machine.dram_bandwidth

    with trace.span("plan", tasks=n) as span:
        cp, gp, cached = _plans_for(sched, arena)
        priority: list[float] | None = None
        if policy == "critical":
            priority = cp.priorities(arena).tolist()
        span.set(cached=cached)
    successors = arena.successors_lists()
    plans = gp.plans
    zeros = gp.zeros
    seeds = gp.seeds
    names = arena.names_list()
    created = gp.created
    any_created = gp.any_created
    zero_seed = gp.zero_seed
    indegree = gp.indeg0.copy()

    # ---- ready-queue state (same discipline as the reference loop) ----

    ready_fifo: deque[int] = deque()
    ready_lifo: list[int] = []
    ready_heap: list[tuple[float, int]] = []
    core_deques: list[deque[int]] = [deque() for _ in range(threads)]
    shared_inbox: deque[int] = deque()
    ready_total = 0
    task_core: dict[int, int] = {}

    is_fifo = policy == "fifo"
    is_lifo = policy == "lifo"
    is_steal = policy == "steal"
    # When no task has a creator, the affinity/migration code can never
    # fire, so the per-dispatch bookkeeping is skipped wholesale.  Steal
    # always tracks: push_ready routes via task_core.
    track_affinity = is_steal or any_created

    # Bound length accessor for the active queue: calling a builtin
    # method is ~4x cheaper than a closure summing three lens.
    if is_fifo:
        qlen = ready_fifo.__len__
    elif is_lifo:
        qlen = ready_lifo.__len__
    elif is_steal:
        qlen = lambda: ready_total  # noqa: E731 - reads the live cell
    else:
        qlen = ready_heap.__len__

    def push_ready(tid: int) -> None:
        nonlocal ready_total
        if is_fifo:
            ready_fifo.append(tid)
        elif is_lifo:
            ready_lifo.append(tid)
        elif priority is not None:
            heapq.heappush(ready_heap, (-priority[tid], tid))
        else:  # steal
            creator = created[tid]
            home = task_core.get(creator) if creator is not None else None
            if home is None:
                shared_inbox.append(tid)
            else:
                core_deques[home].appendleft(tid)
            ready_total += 1

    def pop_for_core(core: int) -> int:
        nonlocal ready_total, steals
        ready_total -= 1
        if core_deques[core]:
            return core_deques[core].popleft()
        if shared_inbox:
            return shared_inbox.popleft()
        victim = max(range(threads), key=lambda v: len(core_deques[v]))
        steals += 1
        return core_deques[victim].pop()

    # ---- incremental event-kernel state -------------------------------
    n_entries = threads * 5
    # Absolute exhaust time minus per-entry EPS slack, flat (P*5,).
    texp_adj = [_INF] * n_entries
    # Flat mirrors as plain Python floats (cheap scalar reads),
    # indexed core * 5 + dim like texp_adj.
    texp_true = [_INF] * n_entries
    rate_of = [0.0] * n_entries
    # Work-space bookkeeping: demand_of[e] is the work outstanding at
    # the entry's last (re)pricing, seat_of[e] that pricing's time.
    # The bulk ``rate_sum * dt`` credit accumulates rounding in *time*
    # space, which large rates amplify.  At an entry's TRUE exhaust the
    # event step adds ``demand_of[e] - rate * (t_next - seat_of[e])``
    # to the interval credit, cancelling that drift, so the activity
    # integrals conserve every task's demand in work space.
    demand_of = [0.0] * n_entries
    seat_of = [0.0] * n_entries
    # Flat-index decode tables (cheaper than divmod in the sweep).
    core_of_idx = [e // 5 for e in range(n_entries)]
    dim_of_idx = [e % 5 for e in range(n_entries)]
    alive_dims = [0] * threads
    start_of = [0.0] * threads
    # rate_sum[d]: total service rate of unexhausted entries in dim d.
    # Private dims (0-2) are maintained incrementally; shared dims (3,
    # 4) are recomputed exactly from user counts at every share change.
    # dim_users[4] doubles as the machine-wide DRAM user count.
    rate_sum = [0.0, 0.0, 0.0, 0.0, 0.0]
    dim_users = [0, 0, 0, 0, 0]
    l3_users = [0] * num_sockets
    # Seated (priced, finite-texp) entry counts per shared dim: lets
    # refresh_shares skip the running-dict scan when every user is
    # still waiting on ``unseated``.
    seated3 = [0] * num_sockets
    seated4 = 0
    share3 = [0.0] * num_sockets
    share4 = 0.0
    # Shared-dim entries dispatched but not yet priced: (core, dim, work).
    unseated: list[tuple[int, int, float]] = []
    shares_dirty = False

    # The C kernel's outputs as row lists, packed into its columns once
    # after the loop (schedule_of_rows).
    records: list[tuple[int, int, float, float]] = []  # tid, core, start, end
    intervals: list[tuple] = []
    records_append = records.append
    intervals_append = intervals.append
    busy_core: list[int] = []
    busy_start: list[float] = []
    busy_end: list[float] = []
    last_busy = [-1] * threads  # index of each core's last busy row
    free_cores: list[int] = list(range(threads - 1, -1, -1))
    running: dict[int, int] = {}  # core -> tid, in dispatch order
    pending_trivial: list[int] = []  # cores whose task exhausted off-event
    t = 0.0
    done_count = 0
    migrations = 0
    steals = 0

    def complete(tid: int, when: float) -> int:
        """Propagate a completion; returns how many tasks it retired
        (1 + the zero-cost cascade)."""
        count = 1
        for succ in successors[tid]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                if zeros[succ]:
                    records_append((succ, -1, when, when))
                    count += cascade(succ, when)
                else:
                    push_ready(succ)
        return count

    def cascade(root: int, when: float) -> int:
        """:func:`complete` for a zero-cost *root*: the reference's
        pre-order on an explicit stack, so a chain of joins of any
        length never recurses."""
        count = 1
        stack = [iter(successors[root])]
        while stack:
            for succ in stack[-1]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    if zeros[succ]:
                        records_append((succ, -1, when, when))
                        count += 1
                        stack.append(iter(successors[succ]))
                        break
                    push_ready(succ)
            else:
                stack.pop()
        return count

    # Seed the sources (tids precomputed in the plan cache).  fifo/lifo
    # admit a batched `extend` (the queue order is the iteration
    # order); critical/steal need per-task routing.  Zero-cost sources
    # cascade immediately, so a pending batch is flushed before each
    # cascade to preserve the reference kernel's interleaving.
    batch_queue = ready_fifo if is_fifo else ready_lifo if is_lifo else None
    if not zero_seed and batch_queue is not None:
        batch_queue.extend(seeds)
    elif not zero_seed:
        for tid in seeds:
            push_ready(tid)
    else:
        seed_buf: list[int] = []
        for tid in seeds:
            if zeros[tid]:
                if seed_buf:
                    batch_queue.extend(seed_buf)  # type: ignore[union-attr]
                    seed_buf.clear()
                records_append((tid, -1, 0.0, 0.0))
                done_count += cascade(tid, 0.0)
            elif batch_queue is not None:
                seed_buf.append(tid)
            else:
                push_ready(tid)
        if seed_buf:
            batch_queue.extend(seed_buf)  # type: ignore[union-attr]

    def exhaust_entry(core: int, dim: int) -> None:
        """Retire one (core, dim) entry; queue the task when finished.

        Called on the cold paths only (sub-EPS reseat residues); the
        event-scan loop inlines the same logic for speed.  Keep the two
        in sync.
        """
        nonlocal shares_dirty, seated4
        e = core * 5 + dim
        texp_true[e] = _INF
        texp_adj[e] = _INF
        if dim < 3:
            rate_sum[dim] -= rate_of[e]
            dim_users[dim] -= 1
            if dim_users[dim] == 0:
                rate_sum[dim] = 0.0  # kill accumulated float residue exactly
        elif dim == 3:
            dim_users[3] -= 1
            sock = socket_of[core]
            l3_users[sock] -= 1
            seated3[sock] -= 1
            shares_dirty = True
        else:
            dim_users[4] -= 1
            seated4 -= 1
            shares_dirty = True
        alive_dims[core] -= 1
        if alive_dims[core] == 0:
            pending_trivial.append(core)

    def reseat(core: int, dim: int, rem: float, rate: float, now: float) -> None:
        """Price one shared entry at *rate* with *rem* work left."""
        if rem <= _EPS:
            # Sub-EPS residue: retire it now, so it never constrains
            # dt.
            exhaust_entry(core, dim)
            return
        if rate <= 0.0:
            raise SchedulingError(
                f"task {names[running[core]]!r} has demand in dim {dim} "
                f"but zero service rate"
            )
        e = core * 5 + dim
        texp = now + rem / rate
        texp_true[e] = texp
        rate_of[e] = rate
        texp_adj[e] = texp - _EPS / rate
        demand_of[e] = rem
        seat_of[e] = now

    def refresh_shares_multi(now: float) -> None:
        """Recompute shared-bandwidth shares after a user-count change,
        reseat affected entries and rebuild the shared rate sums.

        Seated entries needing a reprice are found by scanning the
        ``running`` dict (≤ P cores).  Reseat order is irrelevant to
        the result: each reseat writes per-entry state only, and the
        shared rate sums are rebuilt from the user counts below — no
        float accumulation order to match.
        """
        nonlocal share4, shares_dirty, seated4
        while True:
            shares_dirty = False
            if unseated:
                pending = unseated[:]
                unseated.clear()
            else:
                pending = ()
            dram_users = dim_users[4]
            new4 = dram_bw / dram_users if dram_users else 0.0
            if new4 != share4:
                share4 = new4
                if seated4:
                    # Iterating ``running`` directly is safe: reseat's
                    # sub-EPS path mutates pending_trivial, never the
                    # running dict itself.
                    for core in running:
                        e = core * 5 + 4
                        told = texp_true[e]
                        if told != _INF:
                            reseat(core, 4, (told - now) * rate_of[e], new4, now)
            for sock in range(num_sockets):
                new3 = l3_bw / l3_users[sock] if l3_users[sock] else 0.0
                if new3 != share3[sock]:
                    share3[sock] = new3
                    if seated3[sock]:
                        for core in running:
                            if socket_of[core] != sock:
                                continue
                            e = core * 5 + 3
                            told = texp_true[e]
                            if told != _INF:
                                reseat(core, 3, (told - now) * rate_of[e], new3, now)
            for core, dim, work in pending:
                # Dispatch filtered sub-EPS demands, so work > EPS here.
                if dim == 4:
                    rate = share4
                    seated4 += 1
                else:
                    rate = share3[socket_of[core]]
                    seated3[socket_of[core]] += 1
                if rate <= 0.0:
                    raise SchedulingError(
                        f"task {names[running[core]]!r} has demand in dim {dim} "
                        f"but zero service rate"
                    )
                e = core * 5 + dim
                texp = now + work / rate
                texp_true[e] = texp
                rate_of[e] = rate
                texp_adj[e] = texp - _EPS / rate
                demand_of[e] = work
                seat_of[e] = now
            if not shares_dirty:
                break
        # Shared rate sums follow directly from the user counts.
        rate_sum[4] = dim_users[4] * share4
        s3 = 0.0
        for sock in range(num_sockets):
            s3 += l3_users[sock] * share3[sock]
        rate_sum[3] = s3

    def refresh_shares_single(now: float) -> None:
        """Single-socket specialization of :func:`refresh_shares_multi`
        (the paper's machine): one L3 domain, so both shared dims are
        repriced in one fused pass over ``running`` with the reseat
        arithmetic inlined.  Identical state transitions — only the
        iteration shape differs (reseat order is irrelevant, see the
        multi-socket docstring).
        """
        nonlocal share4, shares_dirty, seated4
        eps = _EPS
        while True:
            shares_dirty = False
            if unseated:
                pending = unseated[:]
                unseated.clear()
            else:
                pending = ()
            du4 = dim_users[4]
            new4 = dram_bw / du4 if du4 else 0.0
            l3u = l3_users[0]
            new3 = l3_bw / l3u if l3u else 0.0
            chg4 = new4 != share4
            chg3 = new3 != share3[0]
            if chg4:
                share4 = new4
                if not seated4:
                    chg4 = False
            if chg3:
                share3[0] = new3
                if not seated3[0]:
                    chg3 = False
            if chg4 or chg3:
                for core in running:
                    base = core * 5
                    if chg4:
                        e = base + 4
                        told = texp_true[e]
                        if told != _INF:
                            rem = (told - now) * rate_of[e]
                            if rem <= eps:
                                exhaust_entry(core, 4)
                            elif new4 <= 0.0:
                                raise SchedulingError(
                                    f"task {names[running[core]]!r} has demand "
                                    f"in dim 4 but zero service rate"
                                )
                            else:
                                texp = now + rem / new4
                                texp_true[e] = texp
                                rate_of[e] = new4
                                texp_adj[e] = texp - eps / new4
                                demand_of[e] = rem
                                seat_of[e] = now
                    if chg3:
                        e = base + 3
                        told = texp_true[e]
                        if told != _INF:
                            rem = (told - now) * rate_of[e]
                            if rem <= eps:
                                exhaust_entry(core, 3)
                            elif new3 <= 0.0:
                                raise SchedulingError(
                                    f"task {names[running[core]]!r} has demand "
                                    f"in dim 3 but zero service rate"
                                )
                            else:
                                texp = now + rem / new3
                                texp_true[e] = texp
                                rate_of[e] = new3
                                texp_adj[e] = texp - eps / new3
                                demand_of[e] = rem
                                seat_of[e] = now
            for core, dim, work in pending:
                # Dispatch filtered sub-EPS demands, so work > EPS here.
                if dim == 4:
                    rate = share4
                    seated4 += 1
                else:
                    rate = share3[0]
                    seated3[0] += 1
                if rate <= 0.0:
                    raise SchedulingError(
                        f"task {names[running[core]]!r} has demand in dim {dim} "
                        f"but zero service rate"
                    )
                e = core * 5 + dim
                texp = now + work / rate
                texp_true[e] = texp
                rate_of[e] = rate
                texp_adj[e] = texp - eps / rate
                demand_of[e] = work
                seat_of[e] = now
            if not shares_dirty:
                break
        # Shared rate sums follow directly from the user counts.
        rate_sum[4] = dim_users[4] * share4
        rate_sum[3] = l3_users[0] * share3[0]

    refresh_shares = refresh_shares_multi if multi_socket else refresh_shares_single

    # Local aliases: these names are closure cells (the helpers above
    # capture them); rebinding them to plain locals makes the hot loop
    # use LOAD_FAST instead of LOAD_DEREF.  The aliased objects are
    # never rebound, only mutated, so both names stay in sync.
    ta = texp_adj
    tt = texp_true
    rof = rate_of
    rs = rate_sum
    du = dim_users
    dem = demand_of
    seat = seat_of
    rec_app = records_append

    while done_count < n:
        # ---- dispatch ready tasks onto free cores (reference logic) ----
        # Dispatch never refills either side, so the batch size is
        # fixed up front — saves re-evaluating the loop condition.
        nfree = len(free_cores)
        nready = qlen()
        batch = nfree if nfree < nready else nready
        while batch:
            batch -= 1
            core = free_cores[-1]
            if is_steal:
                tid = pop_for_core(core)
            elif is_fifo:
                tid = ready_fifo.popleft()
            elif is_lifo:
                tid = ready_lifo.pop()
            else:
                tid = heapq.heappop(ready_heap)[1]
            priv, shr, alive0, tied_affinity = plans[tid]
            if track_affinity:
                creator = created[tid]
                if not is_steal and tied_affinity:
                    want = task_core.get(creator)
                    if want is not None and want in free_cores:
                        core = want
                    elif want is not None:
                        steals += 1
                if core == free_cores[-1]:
                    free_cores.pop()
                else:
                    free_cores.remove(core)
                if (
                    creator is not None
                    and task_core.get(creator) is not None
                    and task_core[creator] != core
                ):
                    migrations += 1
                task_core[tid] = core
            else:
                free_cores.pop()
            running[core] = tid
            start_of[core] = t
            # Seat the demand entries from the precomputed plan.
            # Private dims get their final rate now; shared dims queue
            # on ``unseated`` until the post-batch user counts are
            # known (shares are priced after the whole dispatch batch;
            # their texp entries are already INF by the free-core
            # invariant).
            if priv:
                base = core * 5
                for dim, rate, dur, adj_dur, d in priv:
                    e = base + dim
                    rof[e] = rate
                    tt[e] = t + dur
                    ta[e] = t + adj_dur
                    dem[e] = d
                    seat[e] = t
                    rs[dim] += rate
                    du[dim] += 1
            if shr:
                for dim, work in shr:
                    unseated.append((core, dim, work))
                    du[dim] += 1
                    if dim == 3:
                        l3_users[socket_of[core]] += 1
                shares_dirty = True
            alive_dims[core] = alive0
            if alive0 <= 0:
                if alive0 < 0:
                    raise SchedulingError(
                        f"task {names[tid]!r} has demand in dim {-1 - alive0} "
                        f"but zero service rate"
                    )
                # All demands at/below EPS: the task finishes at the
                # *next* event.
                pending_trivial.append(core)

        if not running:
            if done_count < n:
                raise SchedulingError(
                    f"deadlock: {n - done_count} tasks left but nothing "
                    f"ready or running in graph {arena.name!r}"
                )
            break

        if shares_dirty:
            refresh_shares(t)

        # ---- next event: smallest absolute *true* exhaust time ---------
        # The event lands on the smallest TRUE remaining time, the
        # minimum of ``texp_true``, and the sweep below clears every
        # entry with ``texp_adj <= t_next`` (exactly the entries whose
        # remaining work at t_next is <= EPS).  Selecting by adjusted
        # time instead would overshoot the true minimum by up to
        # EPS/rate and mis-credit every running entry's activity.
        t_next = min(tt)

        if t_next == _INF:
            # Nothing can progress: every running task is already
            # exhausted (trivial tasks awaiting their completion tick).
            if not pending_trivial:
                raise SchedulingError(_NO_PROGRESS)
        else:
            dt = t_next - t
            # Snapshot the bulk time-space credits before the sweep
            # mutates the rate sums; the sweep then accumulates the
            # work-space corrections for entries exhausting at their
            # TRUE time (see ``demand_of``).  EPS-window entries (swept
            # with ``texp_true > t_next``) get no correction: their
            # sub-EPS residue goes uncredited.
            t_prev = t
            if dt > 0.0:
                nrun = len(running)
                c0 = rs[0] * dt
                c1 = rs[1] * dt
                c2 = rs[2] * dt
                c3 = rs[3] * dt
                c4 = rs[4] * dt
            corr0 = corr1 = corr2 = corr3 = corr4 = 0.0
            retired = 0
            t = t_next
            # One fused scan (a separate listcomp would cost a frame
            # setup per event).  The inline body mirrors exhaust_entry
            # — keep the two in sync.
            idx = 0
            for v in ta:
                if v <= t_next:
                    core = core_of_idx[idx]
                    dim = dim_of_idx[idx]
                    if tt[idx] == t_next:
                        c = dem[idx] - rof[idx] * (t_next - seat[idx])
                        if dim == 0:
                            corr0 += c
                        elif dim == 1:
                            corr1 += c
                        elif dim == 2:
                            corr2 += c
                        elif dim == 3:
                            corr3 += c
                        else:
                            corr4 += c
                    tt[idx] = _INF
                    ta[idx] = _INF
                    if dim < 3:
                        rs[dim] -= rof[idx]
                        users = du[dim] - 1
                        du[dim] = users
                        if users == 0:
                            rs[dim] = 0.0  # kill float residue exactly
                    elif dim == 3:
                        du[3] -= 1
                        sock = socket_of[core]
                        l3_users[sock] -= 1
                        seated3[sock] -= 1
                        shares_dirty = True
                    else:
                        du[4] -= 1
                        seated4 -= 1
                        shares_dirty = True
                    ad = alive_dims[core] - 1
                    alive_dims[core] = ad
                    if ad == 0:
                        pending_trivial.append(core)
                    retired += 1
                idx += 1
            if not retired and not pending_trivial:
                raise SchedulingError(_NO_PROGRESS)
            if dt > 0.0:
                intervals_append(
                    (
                        t_prev,
                        t_next,
                        nrun,
                        c0 + corr0,
                        c1 + corr1,
                        c2 + corr2,
                        c3 + corr3,
                        c4 + corr4,
                    )
                )

        if pending_trivial:
            if len(pending_trivial) == len(running):
                finished = list(running)
            else:
                finished_set = set(pending_trivial)
                finished = [c for c in running if c in finished_set]
            pending_trivial.clear()
            for core in finished:
                tid_done = running.pop(core)
                start = start_of[core]
                rec_app((tid_done, core, start, t))
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
                if successors[tid_done]:
                    done_count += complete(tid_done, t)
                else:
                    done_count += 1

    _SWEEPS.add(len(intervals))
    return schedule_of_rows(
        arena, threads, t, migrations, steals,
        records, intervals, busy_core, busy_start, busy_end,
    )
