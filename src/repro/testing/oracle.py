"""Differential oracles: two implementations, one answer.

Two independent code paths that must agree give an oracle that needs no
hand-written expected values:

* **fast vs reference event kernel** — the vectorized kernel
  (:mod:`repro.runtime.fastpath`) must reproduce the reference scalar
  loop decision-for-decision: identical makespan, identical task
  records (placement, order, times), identical canonical activity
  intervals and identical whole-run activity integrals (1e-12
  relative; per-interval rows at 1e-9 — the engines' event times agree
  only to a few ulps, see :mod:`tests.runtime.test_fastpath`).
* **parallel vs serial study execution** — ``run(parallel=N)`` fans the
  execution matrix over a process pool; the merged result must be
  *bit-for-bit* identical to the serial run (same run keys, identical
  measurement floats) and the parent's emulated MSR counters must land
  on exactly the same values, because the parallel driver replays every
  cell's plane deposits in serial order.
* **templated vs object lowering** — each dense algorithm's
  ``build_arena`` stamping must equal the independent object lowering
  of :mod:`repro.testing.lowering` bit for bit.
* **stamped numerics vs sequential fast matmul** — the numerics program
  run in a schedule's start order, and again in the depth-first order a
  report-memo miss runs, must reproduce :mod:`repro.linalg.fastmm` (or
  a tile loop, for blocked) byte for byte.
* **event-simulated vs closed-form network models** — the arena-lowered
  event sweep must match the per-rank object loop bit-for-bit on every
  schedule; on a contention-free topology the event lowering of a BSP
  program must equal :class:`~repro.distributed.bsp.BspSimulator` and a
  lone broadcast must equal its :mod:`repro.distributed.comm` closed
  form — exactly, not approximately; and the batched network lowering
  must equal the scalar reference lowering
  (:mod:`repro.testing.netlowering`) column for column.

Every oracle returns :class:`~repro.testing.invariants.Violation` lists
(empty = agreement), so the harness can aggregate and shrink.
"""

from __future__ import annotations

from ..core.study import EnergyPerformanceStudy, StudyConfig
from ..machine.specs import haswell_e3_1225
from ..power.msr import PLANE_MSR, MsrFile
from ..runtime.replay import depth_first_order
from ..runtime.scheduler import ActivityInterval, Schedule, Scheduler
from ..sim.engine import Engine
from .generators import (
    GraphCase,
    LoweringCase,
    NetworkCase,
    NumericsCase,
    gen_study_config,
)
from .invariants import Violation

__all__ = [
    "canonical_intervals",
    "compare_event_programs",
    "compare_schedules",
    "differential_compiled_check",
    "differential_engine_check",
    "differential_lowering_check",
    "differential_network_check",
    "differential_numerics_check",
    "differential_service_check",
    "differential_study_check",
]

#: Decision-level quantities (makespan, record times, interval bounds,
#: whole-run integrals) must match to this relative tolerance.
_REL = 1e-12
#: Per-interval activity rows: the engines' event times agree to a few
#: ulps, and on nanosecond-wide intervals that ulp times a ~1e11 B/s
#: bandwidth is a ~1e-9 relative wiggle in the row itself.  A real
#: accounting bug shifts a row at O(1) relative, nine orders above.
_REL_ROW = 1e-9

_DIMS = ("flops", "bytes_l1", "bytes_l2", "bytes_l3", "bytes_dram")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL * max(1.0, abs(a), abs(b))


def _close_row(a: float, b: float, total: float) -> bool:
    return abs(a - b) <= max(_REL_ROW * max(abs(a), abs(b)), _REL * max(1.0, total))


def canonical_intervals(
    intervals: list[ActivityInterval], makespan: float | None = None
) -> list[ActivityInterval]:
    """Merge zero-width and sub-ulp sliver intervals backward.

    The reference loop sometimes emits zero-duration bookkeeping rows
    when it zeroes trivial demands stepwise; the fast kernel folds those
    into the adjacent interval.  And because the engines' event times
    agree only to a few ulps (absolute exhaust times vs stepwise
    decrements), the reference occasionally splits one event into two
    an ulp apart, emitting an interval a fraction of an ulp wide that
    the fast kernel never sees.  Both degeneracies are canonicalized
    the same way: any interval narrower than ``1e-12`` of the run is
    folded into its predecessor (extending it to the sliver's end), so
    both engines compare on the same canonical sequence.  Activity
    integrals are preserved exactly; the only loss is sub-ulp interval
    bookkeeping no physical quantity depends on.
    """
    if makespan is None:
        makespan = intervals[-1].t_end if intervals else 0.0
    tol = _REL * max(1.0, makespan)
    out: list[ActivityInterval] = []
    for iv in intervals:
        if out and iv.t_end - iv.t_start <= tol:
            p = out[-1]
            out[-1] = ActivityInterval(
                t_start=p.t_start,
                t_end=max(p.t_end, iv.t_end),
                busy_cores=p.busy_cores,
                flops=p.flops + iv.flops,
                bytes_l1=p.bytes_l1 + iv.bytes_l1,
                bytes_l2=p.bytes_l2 + iv.bytes_l2,
                bytes_l3=p.bytes_l3 + iv.bytes_l3,
                bytes_dram=p.bytes_dram + iv.bytes_dram,
            )
        else:
            out.append(iv)
    return out


def compare_schedules(ref: Schedule, fast: Schedule) -> list[Violation]:
    """Every way the two schedules can disagree, as violations."""
    out: list[Violation] = []
    if not _close(ref.makespan, fast.makespan):
        out.append(
            Violation(
                "oracle.makespan",
                f"reference {ref.makespan!r} vs fast {fast.makespan!r}",
            )
        )

    if len(ref.records) != len(fast.records):
        out.append(
            Violation(
                "oracle.records",
                f"record count diverged: {len(ref.records)} vs {len(fast.records)}",
            )
        )
    else:
        for r, f in zip(ref.records, fast.records):
            if (r.tid, r.name, r.core) != (f.tid, f.name, f.core):
                out.append(
                    Violation("oracle.placement", f"{r} vs {f}")
                )
                break
            if not (_close(r.start, f.start) and _close(r.end, f.end)):
                out.append(
                    Violation("oracle.timing", f"{r} vs {f}")
                )
                break

    ri = canonical_intervals(ref.intervals, ref.makespan)
    fi = canonical_intervals(fast.intervals, fast.makespan)
    if len(ri) != len(fi):
        out.append(
            Violation(
                "oracle.intervals",
                f"canonical interval count diverged: {len(ri)} vs {len(fi)}",
            )
        )
    else:
        totals = {d: sum(getattr(i, d) for i in ref.intervals) for d in _DIMS}
        busy_total = ref.stats.busy_core_seconds
        for k, (a, b) in enumerate(zip(ri, fi)):
            if not (_close(a.t_start, b.t_start) and _close(a.t_end, b.t_end)):
                out.append(
                    Violation(
                        "oracle.intervals",
                        f"interval[{k}] bounds diverged: {a} vs {b}",
                    )
                )
                break
            row_bad = [
                d for d in _DIMS
                if not _close_row(getattr(a, d), getattr(b, d), totals[d])
            ]
            if row_bad or not _close_row(
                a.busy_cores * a.duration, b.busy_cores * b.duration, busy_total
            ):
                out.append(
                    Violation(
                        "oracle.intervals",
                        f"interval[{k}] rows diverged ({row_bad or 'busy'}): "
                        f"{a} vs {b}",
                    )
                )
                break

    # Whole-run activity integrals (insensitive to canonicalization).
    for dim in _DIMS:
        sa = sum(getattr(i, dim) for i in ref.intervals)
        sb = sum(getattr(i, dim) for i in fast.intervals)
        if not _close(sa, sb):
            out.append(
                Violation("oracle.integrals", f"total {dim}: {sa} vs {sb}")
            )

    # Integer-valued statistics follow from the decisions; exact.
    for stat in ("task_count", "migrations", "steals"):
        a, b = getattr(ref.stats, stat), getattr(fast.stats, stat)
        if a != b:
            out.append(Violation("oracle.stats", f"{stat}: {a} vs {b}"))
    return out


def differential_engine_check(case: GraphCase) -> list[Violation]:
    """Replay one generated case through both event kernels."""
    ref = Scheduler(
        case.machine, case.threads, case.policy, engine="reference"
    ).run(case.arena)
    fast = Scheduler(
        case.machine, case.threads, case.policy, engine="fast"
    ).run(case.arena)
    return compare_schedules(ref, fast)


def differential_compiled_check(case: GraphCase) -> list[Violation]:
    """Replay one generated case through the compiled C kernel and
    demand agreement with *both* pure-Python kernels.

    The compiled sweep transcribes the fast kernel's arithmetic in
    identical operand order, so against ``fast`` the comparison should
    in practice be bit-identical; the tolerance contract it must
    satisfy is the same one ``fast`` owes ``reference`` — placements
    and makespans to 1e-12 relative, canonical intervals (zero-width
    rows merged identically) and activity integrals within
    :func:`compare_schedules`' bounds.  Callers are responsible for
    probing :func:`repro.runtime.compiledpath.compiled_available`
    first: constructing the scheduler with ``engine="compiled"`` on a
    host without a toolchain raises ``ConfigurationError`` by design.
    """
    ref = Scheduler(
        case.machine, case.threads, case.policy, engine="reference"
    ).run(case.arena)
    fast = Scheduler(
        case.machine, case.threads, case.policy, engine="fast"
    ).run(case.arena)
    compiled = Scheduler(
        case.machine, case.threads, case.policy, engine="compiled"
    ).run(case.arena)
    return compare_schedules(ref, compiled) + compare_schedules(fast, compiled)


# ---------------------------------------------------------------------------
# templated vs recursive lowering


def differential_lowering_check(case: LoweringCase) -> list[Violation]:
    """Replay one cell through both lowering paths and demand
    bit-identity.

    The one-task-at-a-time lowering
    (:func:`repro.testing.lowering.object_lowering`) is the oracle; the
    templated columnar stamping (``build_arena``) must reproduce it
    *bit-for-bit* — same tids, names, dependency lists, cost columns
    (``tobytes`` equality), untied flags and creator links.  On top of
    the structural identity, the arena's vectorized metrics must agree
    with the scalar sweeps of the object graph
    (:class:`~repro.testing.taskgraph.TaskGraph`): the critical path
    exactly (same maxima, same single add per task) and total work to
    1e-12 relative (``np.sum`` pairs additions differently than
    ``sum``).

    An algorithm *without* a columnar path is a violation here, not a
    skip: this family exists precisely to guarantee the object-path
    oracle is exercised against a real templated lowering.
    """
    from ..algorithms.registry import make_algorithm
    from ..runtime.arena import TaskArena
    from .lowering import object_lowering
    from .taskgraph import TaskGraph

    alg = make_algorithm(case.algorithm, case.machine)
    emitted = object_lowering(alg, case.n, case.threads)
    arena_build = alg.build_arena(case.n, case.threads)
    if arena_build is None:
        return [
            Violation(
                "oracle.lowering_path",
                f"{case.algorithm} has no build_arena lowering — the "
                f"templated-vs-recursive oracle cannot run",
            )
        ]
    arena = arena_build.graph
    if not isinstance(arena, TaskArena):
        return [
            Violation(
                "oracle.lowering_path",
                f"{case.algorithm}.build_arena returned "
                f"{type(arena).__name__}, not a TaskArena",
            )
        ]
    out = [
        Violation("oracle.lowering_bits", msg)
        for msg in emitted.structural_diff(arena)
    ]
    if out:
        return out
    obj = TaskGraph.from_arena(emitted)

    # Vectorized metrics vs the object graph's scalar sweeps.
    sched = Scheduler(case.machine, threads=case.threads)
    durs = arena.uncontended_durations(
        sched._core_peak,
        sched._l1_bw,
        sched._l2_bw,
        case.machine.l3_bandwidth,
        case.machine.dram_bandwidth,
    )
    fn = sched.uncontended_duration
    cp_obj = obj.critical_path_seconds(fn)
    cp_arena = arena.critical_path_seconds(durs)
    if cp_obj != cp_arena:
        out.append(
            Violation(
                "oracle.lowering_metrics",
                f"critical path diverged: object {cp_obj!r} vs "
                f"arena {cp_arena!r}",
            )
        )
    tw_obj = obj.total_work_seconds(fn)
    tw_arena = arena.total_work_seconds(durs)
    if not _close(tw_obj, tw_arena):
        out.append(
            Violation(
                "oracle.lowering_metrics",
                f"total work diverged: object {tw_obj!r} vs "
                f"arena {tw_arena!r}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# stamped numerics vs sequential fast matmul


def reference_product(alg, a, b, threads: int):
    """The product the stamped numerics must reproduce bit for bit:
    :mod:`repro.linalg.fastmm` on the zero-padded operands (sliced
    back to ``n x n``) for the Strassen family, a tile-by-tile
    ``a[rows] @ b[:, cols]`` loop for blocked (whose tiles are not
    bit-equal to one ``a @ b``)."""
    import numpy as np

    from ..algorithms.blocked import BlockedGemm
    from ..algorithms.strassen import StrassenWinograd
    from ..algorithms.tuning import tile_grid
    from ..linalg.dense import pad_to_power_of_two
    from ..linalg.fastmm import (
        classic_strassen_product,
        winograd_product,
        winograd_product_peeled,
    )

    n = a.shape[0]
    if isinstance(alg, BlockedGemm):
        c = np.zeros((n, n))
        grid = tile_grid(n, threads, alg.min_tiles_per_thread)
        for ro, rs in grid:
            for co, cs in grid:
                c[ro : ro + rs, co : co + cs] = a[ro : ro + rs, :] @ b[:, co : co + cs]
        return c
    if isinstance(alg, StrassenWinograd):
        if alg.odd_strategy == "peel":
            return winograd_product_peeled(a, b, alg.cutoff)
        product = classic_strassen_product if alg.classic else winograd_product
        cutoff = alg.cutoff
    else:
        product, cutoff = winograd_product, alg.leaf_cutoff
    if alg.padded_n(n) != n:
        a, _ = pad_to_power_of_two(a)
        b, _ = pad_to_power_of_two(b)
    return product(a, b, cutoff)[:n, :n]


def differential_numerics_check(case: NumericsCase) -> list[Violation]:
    """Run one cell's stamped numerics program and demand byte-identity
    with :func:`reference_product`, in the simulated schedule's start
    order and again in :func:`~repro.runtime.replay.depth_first_order`
    — a product that depends on the order would expose a race in the
    DAG.  The depth-first order is the one a cell's report-memo miss
    runs (:meth:`~repro.algorithms.base.MatmulAlgorithm.check_numerics`),
    so this is also what licenses running it instead of the start order
    each cell checks: both give the product the reference gives.

    The verification-report memo reuses one cell's report for every
    cell with the same ``(n, seed, numerics_digest)``.  So every other
    thread count of the case whose program and DAG have this case's
    digest must produce this case's C byte for byte, in its own
    schedule's start order (``oracle.numerics_memo``)."""
    import numpy as np

    from ..algorithms.base import numerics_digest

    alg = case.make()
    arena = alg.build_arena(case.n, case.threads).graph
    schedule = Scheduler(case.machine, case.threads).run(arena)
    got = alg.compute_product(
        case.n, case.threads, schedule.start_order(), arena, seed=case.seed
    )
    c = np.ascontiguousarray(got.c)
    want = reference_product(alg, got.a, got.b, case.threads)
    out = []
    if c.tobytes() != np.ascontiguousarray(want).tobytes():
        out.append(
            Violation(
                "oracle.numerics_reference",
                f"{case.describe()}: C differs from the sequential reference "
                f"(max |diff| {float(np.max(np.abs(c - want))):.3e})",
            )
        )
    again = alg.compute_product(
        case.n, case.threads, depth_first_order(arena), arena, seed=case.seed
    )
    if np.ascontiguousarray(again.c).tobytes() != c.tobytes():
        out.append(
            Violation(
                "oracle.numerics_order",
                f"{case.describe()}: C depends on the linear extension it "
                f"ran in (start order vs depth-first order)",
            )
        )
    digest = numerics_digest(alg.numerics_program(case.n, case.threads), arena)
    for threads in range(1, 5):  # the thread counts cases are drawn from
        if threads == case.threads:
            continue
        other = alg.build_arena(case.n, threads).graph
        if numerics_digest(alg.numerics_program(case.n, threads), other) != digest:
            continue
        order = Scheduler(case.machine, threads).run(other).start_order()
        shared = alg.compute_product(case.n, threads, order, other, seed=case.seed)
        if np.ascontiguousarray(shared.c).tobytes() != c.tobytes():
            out.append(
                Violation(
                    "oracle.numerics_memo",
                    f"{case.describe()}: threads={threads} stamps the same "
                    f"program and DAG but computes a different C",
                )
            )
    return out


# ---------------------------------------------------------------------------
# parallel vs serial study execution


def _measurement_fields(m) -> tuple:
    """The floats that must match bit-for-bit between runs."""
    e = m.energy
    return (
        m.elapsed_s,
        e.package,
        e.pp0,
        e.dram,
        m.flops,
        m.bytes_dram,
        m.stats.busy_core_seconds,
        m.stats.task_count,
    )


def differential_study_check(
    seed: int, config: StudyConfig | None = None, workers: int = 2
) -> list[Violation]:
    """Run one randomized study matrix serially and through a process
    pool, asserting bit-for-bit identical results and MSR streams.

    Each run gets its own engine and emulated MSR file; after both
    complete, every ``(algorithm, size, threads)`` cell's measurement
    floats must be *exactly* equal (same code in the worker as in the
    parent, merged deterministically) and the two MSR files' energy
    counters must read identically (the parallel driver replays plane
    deposits in serial order).
    """
    out: list[Violation] = []
    config = config or gen_study_config(seed)
    machine = haswell_e3_1225()

    msr_serial, msr_parallel = MsrFile(), MsrFile()
    serial = EnergyPerformanceStudy(
        machine, config=config, _engine=Engine(machine, msr=msr_serial)
    )._run(None)
    parallel = EnergyPerformanceStudy(
        machine, config=config, _engine=Engine(machine, msr=msr_parallel)
    )._run(workers)

    if set(serial.runs) != set(parallel.runs):
        missing = set(serial.runs) ^ set(parallel.runs)
        return [
            Violation(
                "oracle.study_keys",
                f"serial and parallel studies ran different cells: {missing}",
            )
        ]
    for key in serial.runs:
        a = _measurement_fields(serial.runs[key])
        b = _measurement_fields(parallel.runs[key])
        if a != b:
            out.append(
                Violation(
                    "oracle.study_bits",
                    f"cell {key}: serial {a} != parallel {b}",
                )
            )
    for plane, addr in PLANE_MSR.items():
        ca, cb = msr_serial.read(addr), msr_parallel.read(addr)
        if ca != cb:
            out.append(
                Violation(
                    "oracle.study_msr",
                    f"{plane} counter diverged: serial {ca:#x} vs "
                    f"parallel {cb:#x}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# study service vs serial study


def differential_service_check(
    seed: int, config: StudyConfig | None = None, workers: int = 2
) -> list[Violation]:
    """Serve one randomized study matrix and demand bit-identity with a
    fresh serial run — cold, deduped, and store-served alike.

    The drive is three passes over the same grid against one persistent
    store: two *concurrent* identical queries on a fresh service
    (single-flight dedup must make every unique cell compute exactly
    once, with ``workers`` exercising the worker pool), then one
    query on a *new* service over the same store directory (a simulated
    restart — every cell must come back ``"store"``).  Every
    measurement from every pass must match the serial oracle's floats
    exactly, and replaying the hot response's plane energies must
    reproduce the serial run's MSR counters bit-for-bit.
    """
    import asyncio
    import tempfile

    from ..observability.metrics import registry
    from ..service import ServiceConfig, StudyRequest, StudyService

    out: list[Violation] = []
    config = config or gen_study_config(seed)
    machine = haswell_e3_1225()

    msr_serial = MsrFile()
    serial = EnergyPerformanceStudy(
        machine, config=config, _engine=Engine(machine, msr=msr_serial)
    )._run(None)

    request = StudyRequest(
        algorithms=tuple(serial.algorithm_names),
        sizes=config.sizes,
        threads=config.threads,
        seed=config.seed,
        execute_max_n=config.execute_max_n,
    )
    svc_config = ServiceConfig(workers=workers, verify=config.verify)

    async def drive(store: str):
        async with StudyService(machine=machine, store=store, config=svc_config) as svc:
            cold_a, cold_b = await asyncio.gather(
                svc.query(request), svc.query(request)
            )
        # A brand-new service over the same store: a simulated restart.
        async with StudyService(machine=machine, store=store, config=svc_config) as svc:
            hot = await svc.query(request)
        return cold_a, cold_b, hot

    snap = registry().snapshot()
    with tempfile.TemporaryDirectory() as tmp:
        cold_a, cold_b, hot = asyncio.run(drive(tmp))
    delta = registry().delta_since(snap)

    unique = len(request.cells())
    computed = int(delta.get("service.cells_computed", 0))
    if computed != unique:
        out.append(
            Violation(
                "oracle.service_dedup",
                f"two concurrent identical queries computed {computed} "
                f"cells; single-flight dedup demands exactly {unique}",
            )
        )
    bad_hot = [c.spec.describe() for c in hot.cells if c.source != "store"]
    if bad_hot:
        out.append(
            Violation(
                "oracle.service_store",
                f"restarted service recomputed persisted cells: {bad_hot}",
            )
        )

    for label, response in (("cold_a", cold_a), ("cold_b", cold_b), ("hot", hot)):
        for cell in response.cells:
            key = (cell.spec.algorithm, cell.spec.n, cell.spec.threads)
            a = _measurement_fields(serial.runs[key])
            b = _measurement_fields(cell.measurement)
            if a != b:
                out.append(
                    Violation(
                        "oracle.service_bits",
                        f"{label} cell {key} ({cell.source}): "
                        f"serial {a} != served {b}",
                    )
                )
                break  # one diverged cell per pass keeps reports short

    msr_replayed = MsrFile()
    hot.replay_msr(msr_replayed)
    for plane, addr in PLANE_MSR.items():
        ca, cb = msr_serial.read(addr), msr_replayed.read(addr)
        if ca != cb:
            out.append(
                Violation(
                    "oracle.service_msr",
                    f"{plane} counter diverged: serial {ca:#x} vs "
                    f"served replay {cb:#x}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# event-simulated vs closed-form network models


def differential_network_check(case: NetworkCase) -> list[Violation]:
    """Three exact-equality oracles over one network-simulation case.

    1. **Engine differential** — the case's schedule through the
       arena-lowered vectorized sweep (``engine="events"``) and through
       the per-rank object loop (``engine="ranks"``).  Both perform the
       same earliest-finish recurrence in the same order, so every
       output (makespan, per-rank compute/sent/received) must be
       bit-for-bit equal — no tolerance.
    2. **BSP bridge** — a small superstep program (SUMMA- or CAPS-shaped
       to match the case's algorithm family) through the closed-form
       :class:`~repro.distributed.bsp.BspSimulator` and through its
       event lowering (:func:`~repro.distributed.netsim.simulate_bsp`)
       on both engines.  The lowering chains computes per rank and
       prices each barrier with the same ``g·h + L`` arithmetic, so
       totals, per-rank idle and per-rank plane energies must all be
       exactly equal.
    3. **Collective closed form** — a lone broadcast on a
       contention-free (flat, eager) cluster, event-lowered, against
       the matching :mod:`repro.distributed.comm` closed form: binomial
       :func:`~repro.distributed.comm.broadcast` when ``chunks == 1``,
       :func:`~repro.distributed.comm.pipelined_broadcast` otherwise.
       Both sides are the same sequence of float additions, so equality
       is exact.
    4. **Reference lowering** — the case's schedule, the BSP program
       and the broadcast lowered by the batched builder and by the
       scalar reference (:mod:`repro.testing.netlowering`): every event
       column and the CSR dependency arrays must be byte-identical.
    """
    from ..distributed import (
        BspSimulator,
        ClusterSpec,
        NetworkConfig,
        broadcast,
        caps_program,
        netsim,
        pipelined_broadcast,
        simulate,
        simulate_bsp,
        summa_program,
    )
    from .netlowering import (
        reference_broadcast_events,
        reference_bsp_events,
        reference_events,
    )

    out: list[Violation] = []

    # 1. events vs ranks on the case's schedule.
    ev = simulate(
        case.cluster, case.algorithm, case.n, case.ranks, case.config, "events"
    )
    rk = simulate(
        case.cluster, case.algorithm, case.n, case.ranks, case.config, "ranks"
    )
    if ev.n_events != rk.n_events:
        out.append(
            Violation(
                "oracle.network_engines",
                f"{case.describe()}: event counts diverged "
                f"{ev.n_events} vs {rk.n_events}",
            )
        )
    if ev.total_time_s != rk.total_time_s:
        out.append(
            Violation(
                "oracle.network_engines",
                f"{case.describe()}: makespan events={ev.total_time_s!r} "
                f"!= ranks={rk.total_time_s!r}",
            )
        )
    for field in ("compute_s", "sent_bytes", "recv_bytes"):
        a, b = getattr(ev, field), getattr(rk, field)
        if a.tobytes() != b.tobytes():
            out.append(
                Violation(
                    "oracle.network_engines",
                    f"{case.describe()}: per-rank {field} diverged "
                    f"between engines",
                )
            )

    # 2. the BSP bridge: closed form vs event lowering, both engines.
    make = caps_program if case.algorithm == "caps-dist" else summa_program
    program = make(case.cluster, case.bsp_n, case.bsp_ranks, case.bsp_imbalance)
    closed = BspSimulator(case.cluster).run(program)
    for engine in ("events", "ranks"):
        lowered = simulate_bsp(case.cluster, program, engine)
        diverged = [
            name
            for name, a, b in (
                ("total_time_s", closed.total_time_s, lowered.total_time_s),
                ("comm_time_s", closed.comm_time_s, lowered.comm_time_s),
                ("compute_time_s", closed.compute_time_s, lowered.compute_time_s),
                ("idle_time_s", closed.idle_time_s, lowered.idle_time_s),
                ("rank_energy_j", closed.rank_energy_j, lowered.rank_energy_j),
            )
            if a != b
        ]
        if diverged:
            out.append(
                Violation(
                    "oracle.network_bsp",
                    f"{case.describe()} [{engine}]: BSP lowering diverged "
                    f"from the closed form on {diverged} "
                    f"(total {closed.total_time_s!r} vs "
                    f"{lowered.total_time_s!r})",
                )
            )

    # 3. one broadcast on a contention-free cluster vs its closed form.
    flat = ClusterSpec()
    chunks = case.config.chunks
    cfg = NetworkConfig(protocol="eager", chunks=chunks)
    p = max(2, case.bsp_ranks)
    nbytes = 8.0 * case.bsp_n
    prog = netsim.broadcast_events(flat, p, nbytes, cfg)
    if chunks > 1:
        expect = pipelined_broadcast(flat.interconnect, nbytes, p, chunks).time_s
    else:
        expect = broadcast(flat.interconnect, nbytes, p).time_s
    for engine in ("events", "ranks"):
        got = prog.simulate(engine).total_s
        if got != expect:
            out.append(
                Violation(
                    "oracle.network_collective",
                    f"bcast P={p} nbytes={nbytes} chunks={chunks} "
                    f"[{engine}]: event makespan {got!r} != closed form "
                    f"{expect!r}",
                )
            )

    # 4. batched lowering vs the scalar reference, column for column.
    for label, ref, got in (
        (
            case.describe(),
            reference_events(case.cluster, case.algorithm, case.n, case.ranks, case.config),
            netsim.build_events(
                case.cluster, case.algorithm, case.n, case.ranks, case.config
            ),
        ),
        (
            f"bsp P={case.bsp_ranks}",
            reference_bsp_events(case.cluster, program),
            netsim.bsp_events(case.cluster, program),
        ),
        (
            f"bcast P={p} chunks={chunks}",
            reference_broadcast_events(flat, p, nbytes, cfg),
            prog,
        ),
    ):
        out.extend(compare_event_programs(ref, got, label))
    return out


#: Columns of a :class:`~repro.runtime.rankevents.RankEventProgram`
#: that fully determine its simulation.
_EVENT_COLUMNS = ("kind", "rank", "peer", "nbytes", "durations")


def compare_event_programs(ref, got, label: str) -> list[Violation]:
    """Byte-for-byte comparison of two lowered event programs: every
    event column plus ``dep_indptr``/``dep_indices``."""
    columns = [(c, getattr(ref, c), getattr(got, c)) for c in _EVENT_COLUMNS]
    columns += [
        (c, getattr(ref.arena, c), getattr(got.arena, c))
        for c in ("dep_indptr", "dep_indices")
    ]
    diverged = [c for c, a, b in columns if a.dtype != b.dtype or a.tobytes() != b.tobytes()]
    if ref.ranks != got.ranks:
        diverged.insert(0, "ranks")
    if not diverged:
        return []
    return [
        Violation(
            "oracle.network_lowering",
            f"{label}: batched lowering diverged from the scalar reference "
            f"on {diverged} ({got.n_events} vs {ref.n_events} events)",
        )
    ]
