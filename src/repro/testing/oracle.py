"""Differential oracles: two implementations, one answer.

Two independent code paths that must agree give an oracle that needs no
hand-written expected values:

* **the three event kernels** — ``reference`` is the scalar spec of the
  event sweep, and ``fast`` (:mod:`repro.runtime.fastpath`) and the C
  kernel (:mod:`repro.runtime.compiledpath`) are optimised
  transcriptions of it.  All three must produce the same schedule bit
  for bit: task names, record columns (placement, order, times),
  activity interval rows, busy columns and statistics, compared bit
  for bit.
* **parallel vs serial study execution** — ``run(parallel=N)`` fans the
  execution matrix over a process pool; the merged result must be
  *bit-for-bit* identical to the serial run (same run keys, identical
  measurement floats) and the parent's emulated MSR counters must land
  on exactly the same values, because the study's merge replays every
  cell's plane deposits in serial order, pool or no pool.
* **templated vs object lowering** — each dense algorithm's
  ``build_arena`` stamping must equal the independent object lowering
  of :mod:`repro.testing.lowering` bit for bit.
* **stamped numerics vs sequential fast matmul** — the numerics program
  run in a schedule's start order, and again in the depth-first order a
  report-memo miss runs, must reproduce :mod:`repro.linalg.fastmm` (or
  a tile loop, for blocked) byte for byte.
* **event-simulated vs closed-form network models** — the arena-lowered
  event sweep must match the per-rank object loop of
  :mod:`repro.testing.netlowering` bit-for-bit on every schedule; on a
  contention-free topology the event lowering of a BSP program must
  equal :class:`~repro.distributed.bsp.BspSimulator` and a
  lone broadcast must equal its :mod:`repro.distributed.comm` closed
  form — exactly, not approximately; and the batched network lowering
  must equal the scalar reference lowering
  (:mod:`repro.testing.netlowering`) column for column.

Every oracle returns :class:`~repro.testing.invariants.Violation` lists
(empty = agreement), so the harness can aggregate and shrink.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.study import EnergyPerformanceStudy, StudyConfig
from ..machine.specs import haswell_e3_1225
from ..power.msr import PLANE_MSR, MsrFile
from ..runtime.replay import depth_first_order
from ..runtime.scheduler import Schedule, Scheduler
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
    "compare_event_programs",
    "compare_schedules",
    "differential_engine_check",
    "differential_lowering_check",
    "differential_network_check",
    "differential_numerics_check",
    "differential_service_check",
    "differential_study_check",
]


def _first_diff(a: np.ndarray, b: np.ndarray) -> int | None:
    """First row where columns *a* and *b* differ in bits (or in
    length), ``None`` when they are identical."""
    if len(a) != len(b):
        return min(len(a), len(b))
    ne = np.asarray(a).view(np.int64) != np.asarray(b).view(np.int64)
    rows = np.flatnonzero(ne.any(axis=1) if ne.ndim > 1 else ne)
    return int(rows[0]) if len(rows) else None


def compare_schedules(ref: Schedule, got: Schedule) -> list[Violation]:
    """Every way schedule *got* differs from *ref*, as violations.

    The comparison is exact: names, record columns, interval rows, busy
    columns and stats must be equal bit for bit.  Each mismatch names
    the first differing row."""
    out: list[Violation] = []
    if got.names != ref.names:
        out.append(Violation("oracle.names", "task-name tables differ"))

    groups = [
        ("oracle.placement", ("rec_tid", "rec_core")),
        ("oracle.timing", ("rec_start", "rec_end")),
        ("oracle.intervals", ("iv_rows",)),
        ("oracle.busy", ("busy_core", "busy_start", "busy_end")),
    ]
    if len(got.rec_tid) != len(ref.rec_tid):
        out.append(
            Violation(
                "oracle.records",
                f"record count diverged: {len(ref.rec_tid)} vs {len(got.rec_tid)}",
            )
        )
        del groups[:2]
    for invariant, cols in groups:
        for col in cols:
            a, b = getattr(ref, col), getattr(got, col)
            row = _first_diff(a, b)
            if row is None:
                continue
            if len(a) != len(b):
                detail = f"{col}: {len(a)} vs {len(b)} rows"
            else:
                detail = f"{col}[{row}]: {a[row].tolist()!r} vs {b[row].tolist()!r}"
            out.append(Violation(invariant, detail))
            break

    if got.stats != ref.stats:
        out.append(Violation("oracle.stats", f"{ref.stats} vs {got.stats}"))
    return out


def differential_engine_check(
    case: GraphCase, kernels: Sequence[str] = ("fast", "compiled")
) -> list[Violation]:
    """Run *case* on ``reference`` and on each of *kernels*; every
    schedule must equal the reference one bit for bit.

    Callers probe :func:`repro.runtime.compiledpath.compiled_available`
    before naming ``compiled``: naming it without a toolchain raises
    ``ConfigurationError`` by design.
    """

    def run(engine: str) -> Schedule:
        return Scheduler(case.machine, case.threads, case.policy, engine=engine).run(
            case.arena
        )

    ref = run("reference")
    out: list[Violation] = []
    for engine in kernels:
        for v in compare_schedules(ref, run(engine)):
            out.append(Violation(v.invariant, f"{engine}: {v.detail}"))
    return out


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
    # A sequential sum against numpy's pairwise one: equal up to
    # summation order.
    if not math.isclose(tw_obj, tw_arena, rel_tol=1e-12, abs_tol=1e-12):
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
    counters must read identically (the study's merge replays plane
    deposits in serial order, pool or no pool).
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

    1. **Sweep differential** — the case's schedule through
       :func:`~repro.distributed.netsim.simulate` (the arena-lowered
       vectorized sweep) and through the per-rank object loop
       (:func:`~repro.testing.netlowering.reference_simulate`).  Both
       perform the same earliest-finish recurrence in the same order,
       so every output (makespan, per-rank compute/sent/received) must
       be bit-for-bit equal — no tolerance.
    2. **BSP bridge** — a small superstep program (SUMMA- or CAPS-shaped
       to match the case's algorithm family) through the closed-form
       :class:`~repro.distributed.bsp.BspSimulator` and through its
       event lowering (:func:`~repro.distributed.netsim.simulate_bsp`),
       whose object-loop sweep must reduce to the same aggregate.  The
       lowering chains computes per rank and prices each barrier with
       the same ``g·h + L`` arithmetic, so totals, per-rank idle and
       per-rank plane energies must all be exactly equal.
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
        reference_simulate,
    )

    import numpy as np

    out: list[Violation] = []

    def sweeps_differ(prog) -> list[str]:
        """Aggregate fields where *prog*'s arena and object sweeps differ."""
        a, b = prog.simulate(), reference_simulate(prog)
        return [
            f"{field} (object sweep)"
            for field in ("total_s", "compute_s", "sent_bytes", "recv_bytes", "sync_s")
            if np.asarray(getattr(a, field)).tobytes()
            != np.asarray(getattr(b, field)).tobytes()
        ]

    # 1. arena sweep vs object sweep on the case's schedule.
    ev = simulate(case.cluster, case.algorithm, case.n, case.ranks, case.config)
    prog = netsim.build_events(case.cluster, case.algorithm, case.n, case.ranks, case.config)
    rk = reference_simulate(prog)
    if ev.n_events != prog.n_events:
        out.append(
            Violation(
                "oracle.network_sweeps",
                f"{case.describe()}: event counts diverged "
                f"{ev.n_events} vs {prog.n_events}",
            )
        )
    if ev.total_time_s != rk.total_s:
        out.append(
            Violation(
                "oracle.network_sweeps",
                f"{case.describe()}: makespan arena={ev.total_time_s!r} "
                f"!= objects={rk.total_s!r}",
            )
        )
    for field in ("compute_s", "sent_bytes", "recv_bytes"):
        a, b = getattr(ev, field), getattr(rk, field)
        if a.tobytes() != b.tobytes():
            out.append(
                Violation(
                    "oracle.network_sweeps",
                    f"{case.describe()}: per-rank {field} diverged "
                    f"between the arena and object sweeps",
                )
            )

    # 2. the BSP bridge: closed form vs event lowering, whose object
    # sweep must reduce to the same aggregate.
    make = caps_program if case.algorithm == "caps-dist" else summa_program
    program = make(case.cluster, case.bsp_n, case.bsp_ranks, case.bsp_imbalance)
    closed = BspSimulator(case.cluster).run(program)
    lowered = simulate_bsp(case.cluster, program)
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
    diverged += sweeps_differ(netsim.bsp_events(case.cluster, program))
    if diverged:
        out.append(
            Violation(
                "oracle.network_bsp",
                f"{case.describe()}: BSP lowering diverged "
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
    bcast = netsim.broadcast_events(flat, p, nbytes, cfg)
    if chunks > 1:
        expect = pipelined_broadcast(flat.interconnect, nbytes, p, chunks).time_s
    else:
        expect = broadcast(flat.interconnect, nbytes, p).time_s
    for sweep, got in (("arena", bcast.simulate()), ("objects", reference_simulate(bcast))):
        if got.total_s != expect:
            out.append(
                Violation(
                    "oracle.network_collective",
                    f"bcast P={p} nbytes={nbytes} chunks={chunks} "
                    f"[{sweep}]: event makespan {got.total_s!r} != closed form "
                    f"{expect!r}",
                )
            )

    # 4. batched lowering vs the scalar reference, column for column.
    for label, ref, got in (
        (
            case.describe(),
            reference_events(case.cluster, case.algorithm, case.n, case.ranks, case.config),
            prog,
        ),
        (
            f"bsp P={case.bsp_ranks}",
            reference_bsp_events(case.cluster, program),
            netsim.bsp_events(case.cluster, program),
        ),
        (
            f"bcast P={p} chunks={chunks}",
            reference_broadcast_events(flat, p, nbytes, cfg),
            bcast,
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
