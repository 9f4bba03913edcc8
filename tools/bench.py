#!/usr/bin/env python
"""Engine benchmark harness: measure, record, and gate performance.

Benchmarks the simulator's perf-critical paths with both scheduler
event kernels (``reference`` — the original scalar loop — and ``fast``
— the vectorized absolute-exhaust-time kernel), plus the build cache
and the trace-driven cache simulator:

``scheduler_wide2000``
    A wide graph of 2000 independent tasks, scheduled at four threads
    by each engine in *repeats* alternating pairs; the gated ``ratio``
    is the median pair's reference/fast.
``matrix_cost48``
    The paper's full 48-cell execution matrix (3 algorithms x sizes
    {512..4096} x threads {1..4}), simulated cost-only by each engine
    in three alternating pairs after one warm-up study each (lowering
    and plan bundles cached); the gated ``ratio`` is the median pair's.
``compiled``
    The same 48-cell matrix as pure scheduler sweeps (no measurement
    pipeline), fast versus the JIT-compiled C kernel.  Arenas, plan
    bundles and the JIT cache are warmed before timing, so the gated
    ``ratio`` (fast/compiled wall time) isolates the event sweep the
    compiled engine replaces; it must stay above the absolute
    ``COMPILED_FLOOR`` (3x).  The compiled wall time is small enough
    that run-to-run noise dominates the ratio, so this section is not
    held to the baseline-relative tolerance.
``study_e2e``
    The command users wait for: a cold cost-only ``Study.run`` of the
    execution matrix per engine (fresh algorithm instances each time,
    so lowering, plan bundles and measurement are all paid; only the
    JIT compile is excluded).  Each of five alternating timed units
    per engine runs such studies until it has taken ``STUDY_UNIT_S``
    (0.3 s) of CPU; a study's time is the best unit's mean.  Traced to
    split the CPU time (steadier than wall time on a shared host) into
    the ``plan``, ``sweep`` (the ``schedule`` span's self time) and
    ``measure`` layers.  The gated ``ratio`` is fast/compiled
    end-to-end CPU time: the kernel ratio above only counts if it
    moves this one.  ``compiled_measure_share`` has the absolute
    ceiling ``MEASURE_SHARE_LIMIT`` (0.25): the columnar measure layer
    must not again lead the compiled study.  The ``compiled_verified_*``
    row times the default study as users run it — compiled, cells up to
    n=1024 verified — and the ``numerics`` and ``verify`` layers'
    shares of its CPU time, plus the largest planned temporary storage
    of any cell that ran its program (``compiled_verified_temp_mb``;
    ``..._unplanned`` is the same cell's storage with a buffer per
    temporary).  ``compiled_verified_reference_products`` counts the
    reference products ``a @ b`` the study computed: its cells share
    each size's operands and product, so it must be exactly one per
    verified size (``n <= VERIFY_MAX_N``, one seed).  Of that row only
    ``compiled_verified_temp_mb``, gated at the absolute ceiling
    ``TEMP_MB_LIMIT`` (64 MiB), and the reference product count are
    gated.
``lowering_cache``
    Strassen lowering uncached (``build_arena`` on a fresh algorithm
    instance, so its subtree templates start cold) versus a warm
    ``build_cached`` hit — the cost a protocol repetition or sweep
    re-run avoids — in *repeats* alternating pairs (a batch of 100 hits
    per sample); the gated ``ratio`` is the median pair's cold/hit.
``cache_sim64k``
    A 64 KiB stride-64 stream through the 3-level LRU hierarchy
    (engine-independent; guards the cache-sim hot path).
``graph_build``
    Cold lowering of the whole execution matrix: the object lowering
    of :mod:`repro.testing.lowering` versus the templated columnar
    arena path (fresh
    algorithm instances per pass, so subtree-template memos start
    cold), timed in alternating pairs (``ratio`` is the median pair's
    object/arena), plus ``tracemalloc`` peak lowering memory at the
    largest problem size for both representations.
``study_parallel``
    Parallel-study dispatch: the bytes one cell's payload carries
    across the process-pool pickle boundary (workers lower their own
    cells, so no arena travels) against the pickled arena a worker
    would otherwise receive, at the largest benchmarked size — plus
    the wall time of a small parallel study.  The gated
    ``bytes_ratio`` (arena pickle bytes / payload bytes) is the
    communication-avoidance headline: it must stay >= 100x at
    n = 4096.
``network_sim``
    The discrete-event network simulator on a thousand-rank 2.5D SUMMA
    schedule (torus topology, c=2): the arena-lowered vectorized
    earliest-finish sweep (the first sweep of a freshly lowered
    program, the one a command pays) versus the per-rank Python-object
    loop of ``repro.testing.netlowering`` over the same schedule.  Both
    produce bit-identical results (the
    ``network_sim`` verify family asserts it); the gated ``ratio``
    (object/arena wall time) must stay above the absolute
    ``NETWORK_FLOOR`` (3x) — per-rank Python objects must never be the
    hot path for P-sweeps.  ``lower_ratio`` times the lowering itself:
    the scalar reference lowering (``repro.testing.netlowering``, one
    message at a time) over the batched one (one builder batch per
    collective round), gated at the absolute ``LOWER_FLOOR`` (10x).
``study_service``
    The async study service under load: 100 overlapping concurrent
    requests for the same cost-only grid (single-flight dedup must
    collapse them to one computation per unique cell), then a burst of
    sequential hot-cell lookups against the warmed content-addressed
    store.  Two *absolute* gates: ``dedup_ratio`` (cells requested /
    cells computed) must stay >= 2x, ``hot_ms`` (mean store-served
    lookup) must stay under 1 ms, ``hot_query_ms`` (median
    store-served query of the whole grid) under ``HOT_QUERY_LIMIT_MS``
    (0.15 ms), and ``hot_reply_ms`` (the same query through the
    server's request handler, encoded reply included) under
    ``HOT_REPLY_LIMIT_MS``.

Host wall-clock numbers are machine-specific, so the regression gate
compares *ratios* (reference/fast, cold/hit), which are stable across
hosts.  The baseline-gated ratios of sections that time two variants
are medians over alternating pairs: both halves of a pair see the same
host load, so the ratio reads the code rather than the load.
``--smoke`` runs reduced-size variants and fails when any gated ratio
regresses more than 25% against the committed baseline.

Run:
  python tools/bench.py                  # full suite, print table
  python tools/bench.py --write          # full + smoke, update BENCH_engine.json
  python tools/bench.py --smoke          # quick gate against BENCH_engine.json
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algorithms import StrassenWinograd
from repro.algorithms.registry import BuildCache
from repro.machine import haswell_e3_1225
from repro.machine.cache import CacheHierarchySpec
from repro.core.study import RunOptions, Study
from repro.runtime.arena import TaskArena
from repro.runtime.cost import TaskCost
from repro.runtime.openmp import OpenMP
from repro.runtime.scheduler import Scheduler
from repro.sim.engine import Engine

DEFAULT_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Ratios gated by ``--smoke``: benchmark name -> ratio field.
#: ``compiled`` is deliberately absent: its denominator is a few tens
#: of milliseconds, so run-to-run noise swings the ratio far more than
#: the 25% tolerance — it gets the absolute ``COMPILED_FLOOR`` gate
#: below instead.
GATED = {
    "scheduler_wide2000": "ratio",
    "matrix_cost": "ratio",
    "lowering_cache": "ratio",
    "graph_build": "ratio",
    "study_parallel": "bytes_ratio",
    "study_e2e": "ratio",
}
#: Allowed regression before the gate fails (fraction of baseline).
TOLERANCE = 0.25

#: Hard ceiling on the estimated tracing-disabled overhead of the gated
#: sections, in percent of section wall time.  Absolute (no baseline):
#: the disabled path is one global load + ``is None`` test per span
#: site, so the estimate must stay small on any host.
OVERHEAD_LIMIT_PCT = 2.0

#: Absolute ceiling on the ``measure`` layer's share of the compiled
#: cost-only study's CPU time (``study_e2e`` ``compiled_measure_share``).
MEASURE_SHARE_LIMIT = 0.25

#: Absolute ceiling, in MiB, on the planned temporaries of any program
#: run in the verified study (``study_e2e`` ``compiled_verified_temp_mb``).
#: Both suites verify CAPS n=1024, whose temporaries plan to 26.6 MiB in
#: the depth-first order a report-memo miss runs and to ~200 MiB in a
#: simulated start order, so a fallback to the start order fails it.
TEMP_MB_LIMIT = 64.0

#: Largest size the verified study (``study_e2e`` ``compiled_verified_*``)
#: executes and verifies; the gate expects one reference product per
#: study size up to it.
VERIFY_MAX_N = 1024

#: Minimum CPU seconds of one timed unit of ``study_e2e``: a unit runs
#: cold studies back to back until it reaches this, and a study's time
#: is the unit's mean.  A lone compiled smoke study takes ~0.06 s, too
#: short for a steady ratio denominator.
STUDY_UNIT_S = 0.3

#: Absolute floor on the compiled engine's speedup over the fast
#: kernel across the execution-matrix sweeps (JIT warm-up excluded).
COMPILED_FLOOR = 3.0

#: Absolute floor on the arena-lowered network sweep's speedup over the
#: per-rank object loop at thousand-rank scale (lowering excluded: both
#: engines consume the same pre-built event program).
NETWORK_FLOOR = 3.0

#: Absolute floor on the batched network lowering's speedup over the
#: scalar reference lowering of the same schedule.
LOWER_FLOOR = 10.0

#: Absolute gates on the study service (no baseline needed): a
#: store-served cell lookup must average under this many milliseconds,
#: and overlapping identical requests must dedup at least this much.
HOT_LOOKUP_LIMIT_MS = 1.0
DEDUP_FLOOR = 2.0
#: Absolute ceiling on the median store-served query of the whole
#: 12-cell ``study_service`` grid.  Read at 0.040-0.074 ms (smoke and
#: full, standalone and inside ``--smoke``, 2-vCPU x86-64 VM); the same
#: grid took 0.20-0.22 ms when every cell was an asyncio task and
#: re-hashed its key, which this catches with 2-4x headroom over
#: today's readings.
HOT_QUERY_LIMIT_MS = 0.15
#: Absolute ceiling on the median store-served whole-grid query through
#: the server's request handler, encoded reply bytes included: what
#: ``repro serve`` spends on a hot re-query besides the socket.
#: Read at 0.038-0.040 ms standalone and 0.071-0.079 ms inside
#: ``--smoke`` (12-cell smoke grid, 2-vCPU x86-64 VM); encoding every
#: cell's ``summary()`` with ``json.dumps`` on each query read
#: 0.136-0.153 ms standalone and 0.237 ms inside ``--smoke``, which
#: this catches with ~1.9x headroom over today's ``--smoke`` readings.
HOT_REPLY_LIMIT_MS = 0.15


def _best_cold(fresh, run, repeats: int) -> float:
    """Best of *repeats* timings of ``run(fresh())``: each sample runs
    on a new object, and building it stays outside the timer."""
    best = float("inf")
    for _ in range(repeats):
        obj = fresh()
        t0 = time.perf_counter()
        run(obj)
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return best


def _best_of(fn, repeats: int) -> float:
    return _best_cold(lambda: None, lambda _: fn(), repeats)


def _paired(run_a, run_b, pairs: int) -> tuple[float, float, float]:
    """``(median a, median b, median a/b)`` over *pairs* alternating
    timings of ``run_a()`` and ``run_b()`` (seconds)."""
    ta, tb = [], []
    for _ in range(pairs):
        for run, times in ((run_a, ta), (run_b, tb)):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
    ratios = [a / b for a, b in zip(ta, tb)]
    return statistics.median(ta), statistics.median(tb), statistics.median(ratios)


def _wide_graph(tasks: int = 2000) -> TaskArena:
    omp = OpenMP(f"wide{tasks}")
    for i in range(tasks):
        omp.task(f"t{i}", TaskCost(flops=1e8, bytes_dram=1e5))
    return omp.graph


def bench_scheduler(machine, repeats: int) -> dict:
    """Wide-graph scheduler throughput, reference vs fast."""
    graph = _wide_graph(2000)
    runs = [
        lambda s=Scheduler(machine, threads=4, engine=engine): s.run(graph)
        for engine in ("reference", "fast")
    ]
    for run in runs:  # the fast kernel's seat plan is cached on the arena
        run()
    ref_s, fast_s, ratio = _paired(*runs, repeats)
    return {
        "reference_ms": ref_s * 1e3,
        "fast_ms": fast_s * 1e3,
        "ratio": ratio,
        "pairs": repeats,
    }


def bench_matrix(machine, sizes: tuple[int, ...], pairs: int = 3) -> dict:
    """The execution matrix, simulated cost-only, reference vs fast."""
    cells = []

    def study(engine: str):
        def run():
            result = Study(machine, sizes=sizes, execute_max_n=0).run(
                RunOptions(engine=engine)
            ).result
            cells.append(len(result.runs))

        return run

    runs = [study("reference"), study("fast")]
    for run in runs:  # lowering and plan bundles are cached after this
        run()
    ref_s, fast_s, ratio = _paired(*runs, pairs)
    return {
        "sizes": list(sizes),
        "reference_s": ref_s,
        "cells": cells[-1],
        "fast_s": fast_s,
        "ratio": ratio,
        "pairs": pairs,
    }


def bench_compiled(machine, sizes: tuple[int, ...], repeats: int) -> dict:
    """Execution-matrix scheduler sweeps, fast vs the compiled C kernel.

    Every cell of the matrix is lowered once up front and each engine
    runs a full warm-up pass (plan bundles cached on the arenas, kernel
    JIT-compiled via :func:`warm_compile`), so the timed sweeps compare
    only the event kernels themselves — the paper-study work the
    compiled engine accelerates.  Per-cell ``Scheduler.run`` only; the
    measurement pipeline is identical across engines and excluded.
    """
    from repro.algorithms.registry import paper_algorithms
    from repro.runtime.compiledpath import compiled_available, warm_compile

    ok, reason = compiled_available()
    if not ok:
        return {"available": False, "reason": reason, "ratio": 0.0}
    warm_compile()  # JIT compile excluded from the timings
    threads = (1, 2, 3, 4)
    cells = []
    for alg in paper_algorithms(machine):
        for n in sizes:
            for p in threads:
                cells.append((alg.build_arena(n, p).graph, p))
    out = {"sizes": list(sizes), "cells": len(cells), "available": True}
    scheds = {
        engine: {
            p: Scheduler(machine, threads=p, engine=engine)
            for p in threads
        }
        for engine in ("fast", "compiled")
    }

    def sweep(engine: str) -> None:
        table = scheds[engine]
        for graph, p in cells:
            table[p].run(graph)

    sweep("fast")  # warm both engines' per-arena plan caches
    sweep("compiled")
    reps = min(repeats, 3)
    out["fast_s"] = _best_of(lambda: sweep("fast"), reps)
    out["compiled_s"] = _best_of(lambda: sweep("compiled"), reps)
    out["ratio"] = out["fast_s"] / out["compiled_s"]
    return out


def bench_study_e2e(machine, sizes: tuple[int, ...], repeats: int = 5) -> dict:
    """Cold cost-only ``Study.run`` per engine, split into layers
    (the best of *repeats* timed units, each the mean of cold runs on
    fresh algorithm instances over at least ``STUDY_UNIT_S`` of CPU)."""
    from repro.algorithms.registry import default_build_cache
    from repro.observability import trace as obtrace
    from repro.observability.export import layer_times
    from repro.runtime.compiledpath import compiled_available, warm_compile

    ok, reason = compiled_available()
    if not ok:
        return {"available": False, "reason": reason, "ratio": 0.0}
    warm_compile()  # JIT compile excluded from the timings
    out = {"sizes": list(sizes), "available": True}
    best: dict[str, tuple] = {}
    # Engines alternate, so a slow stretch on a shared host hits both.
    for _ in range(repeats):
        for engine in ("fast", "compiled"):
            # A timed unit runs cold studies until it has taken
            # STUDY_UNIT_S of CPU, so a study of a few tens of
            # milliseconds is averaged over several runs.
            cpu, studies = 0.0, 0
            with obtrace.tracing() as tr:
                while studies == 0 or cpu < STUDY_UNIT_S:
                    # Cold like a fresh process: no cached lowerings or
                    # plans, and no garbage from the last run for the
                    # collector.
                    default_build_cache().clear()
                    gc.collect()
                    study = Study(machine, sizes=sizes, execute_max_n=0, verify=False)
                    t0 = time.process_time()
                    run = study.run(RunOptions(engine=engine))
                    cpu += time.process_time() - t0
                    studies += 1
            if engine not in best or cpu / studies < best[engine][0]:
                best[engine] = (cpu / studies, cpu, tr)
    for engine, (per_study, cpu, tr) in best.items():
        layers = layer_times(tr, cpu=True)
        out[f"{engine}_s"] = per_study
        for layer, span in (("plan", "plan"), ("sweep", "schedule"),
                            ("measure", "measure")):
            out[f"{engine}_{layer}_share"] = layers.get(span, (0, 0.0))[1] / cpu
    out["cells"] = len(run.result.runs)
    out["ratio"] = out["fast_s"] / out["compiled_s"]
    out.update(bench_study_verified(machine, sizes, min(repeats, 3)))
    return out


def bench_study_verified(machine, sizes: tuple[int, ...], repeats: int) -> dict:
    """The default study as users run it: compiled, cells up to n=1024
    verified.  Best-of-*repeats* cold CPU time (empty build cache and
    report memo each pass), the ``numerics`` and ``verify`` layers'
    shares of it, and the largest planned temporaries of a program run
    (the ``temp_mb`` of the report-memo misses' ``numerics`` spans),
    and the reference products the best pass computed."""
    from repro.algorithms.base import default_build_cache, numerics_memo
    from repro.observability import trace as obtrace
    from repro.observability.export import layer_times
    from repro.observability.metrics import registry

    best = None
    for _ in range(repeats):
        default_build_cache().clear()
        numerics_memo().clear()
        gc.collect()
        study = Study(machine, sizes=sizes, execute_max_n=VERIFY_MAX_N, verify=True)
        before = registry().snapshot()
        with obtrace.tracing() as tr:
            t0 = time.process_time()
            study.run(RunOptions(engine="compiled"))
            cpu = time.process_time() - t0
        products = registry().delta_since(before).get("numerics.reference_products", 0)
        if best is None or cpu < best[0]:
            best = (cpu, tr, products)
    cpu, tr, products = best
    layers = layer_times(tr, cpu=True)
    numerics = layers.get("numerics", (0, 0.0))
    misses = [sp.attrs for sp in tr.find("numerics") if sp.attrs["memo"] == "miss"]
    peak = max(misses, key=lambda attrs: attrs["temp_mb"])
    return {
        "compiled_verified_s": cpu,
        "compiled_verified_cells": int(numerics[0]),
        "compiled_verified_numerics_share": numerics[1] / cpu,
        "compiled_verified_verify_share": layers.get("verify", (0, 0.0))[1] / cpu,
        "compiled_verified_temp_mb": peak["temp_mb"],
        "compiled_verified_temp_mb_unplanned": peak["temp_mb_unplanned"],
        "compiled_verified_reference_products": int(products),
    }


def bench_lowering_cache(machine, n: int, pairs: int) -> dict:
    """Uncached Strassen lowering (what a cache miss pays) vs a warm
    build-cache hit, in *pairs* alternating timings; the gated
    ``ratio`` is the median pair's cold/hit.  Each cold sample lowers on
    a fresh algorithm instance, built outside the timer, so it pays the
    subtree-template construction a first lowering pays, not a
    re-lowering from warm template memos."""
    fresh = iter([StrassenWinograd(machine) for _ in range(pairs)])
    alg = StrassenWinograd(machine)
    cache = BuildCache()
    alg.build_cached(n, 4, cache=cache)  # warm

    # A cache hit is sub-microsecond — below what one perf_counter pair
    # resolves reliably — so time a batch of hits per sample.
    def hit_batch():
        for _ in range(100):
            alg.build_cached(n, 4, cache=cache)

    cold, batch, ratio = _paired(
        lambda: next(fresh).build_arena(n, 4), hit_batch, pairs
    )
    return {
        "n": n,
        "cold_ms": cold * 1e3,
        "hit_ms": batch / 100 * 1e3,
        "ratio": ratio * 100,
        "pairs": pairs,
    }


def bench_graph_build(
    machine,
    sizes: tuple[int, ...],
    pairs: int,
    threads: tuple[int, ...] = (1, 2, 3, 4),
) -> dict:
    """Cold execution-matrix lowering: the object lowering (the
    :mod:`repro.testing.lowering` oracle) vs the templated arena, plus
    peak lowering memory at the largest size.

    Each timed pass starts from *fresh* algorithm instances so the
    arena path pays its subtree-template construction (the realistic
    cold cost a study's first lowering of each cell sees); within a
    pass templates amortize across cells exactly as they do in
    production (one algorithm instance lowers every cell).
    """
    import tracemalloc

    from repro.algorithms.registry import paper_algorithms
    from repro.testing.lowering import object_lowering

    def build_matrix(arena: bool) -> None:
        for alg in paper_algorithms(machine):  # fresh = cold memos
            for n in sizes:
                for p in threads:
                    if arena:
                        alg.build_arena(n, p)
                    else:
                        object_lowering(alg, n, p)

    object_s, arena_s, ratio = _paired(
        lambda: build_matrix(False), lambda: build_matrix(True), pairs
    )
    out = {
        "sizes": list(sizes),
        "cells": 3 * len(sizes) * len(threads),
        "object_s": object_s,
        "arena_s": arena_s,
        "ratio": ratio,
        "pairs": pairs,
    }

    n_big = max(sizes)

    def peak_bytes(arena: bool) -> int:
        alg = StrassenWinograd(machine)
        tracemalloc.start()
        try:
            if arena:
                graph = alg.build_arena(n_big, 4).graph
            else:
                graph = object_lowering(alg, n_big, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del graph
        return peak

    out["object_peak_mb"] = peak_bytes(False) / 2**20
    out["arena_peak_mb"] = peak_bytes(True) / 2**20
    out["mem_ratio"] = (
        out["object_peak_mb"] / out["arena_peak_mb"]
        if out["arena_peak_mb"] > 0
        else float("inf")
    )
    return out


def bench_study_parallel(machine, sizes: tuple[int, ...], workers: int = 2) -> dict:
    """Parallel-study dispatch: what crosses the pipe per cell.

    ``payload_bytes`` is the pickled payload the study driver submits
    to its pool for one cell of the largest benchmarked size (on the
    engine its cells run on);
    ``arena_bytes`` is that cell's pickled arena, which the payload
    does not carry because the worker lowers the cell itself.
    ``bytes_ratio`` is their quotient (gated: the payload is constant
    in n, the arena grows with it).  ``parallel_s`` times a small
    cost-only parallel study end to end.
    """
    import pickle

    n_big = max(sizes)
    alg = StrassenWinograd(machine)
    study = Study(machine, algorithms=[alg], baseline=alg.name)
    payload = study._payload(Engine(machine), alg, n_big, 4)
    out = {
        "n": n_big,
        "arena_bytes": len(pickle.dumps(alg.build_arena(n_big, 4).graph)),
        "payload_bytes": len(pickle.dumps(payload)),
    }
    out["bytes_ratio"] = out["arena_bytes"] / out["payload_bytes"]

    bench_sizes = tuple(s for s in sizes if s <= 1024) or (min(sizes),)
    study = Study(machine, sizes=bench_sizes, execute_max_n=0, verify=False)
    t0 = time.perf_counter()
    result = study.run(RunOptions(engine="fast", parallel=workers)).result
    out["parallel_s"] = time.perf_counter() - t0
    out["cells"] = len(result.runs)
    out["workers"] = workers
    return out


def bench_network_sim(machine, smoke: bool, repeats: int) -> dict:
    """Thousand-rank event sweep: arena sweep vs per-rank object loop.

    One 2.5D SUMMA schedule (torus2d, c=2) is swept by the arena and by
    the object loop of ``repro.testing.netlowering``, so the gated
    ``ratio`` isolates the earliest-finish recurrence the arena lowering
    vectorizes.  ``events_ms`` is the *first* sweep of a
    freshly lowered program (best over fresh programs, lowering outside
    the timer): the cold sweep ``repro distributed --simulate`` pays.
    The object loop builds its per-rank objects on every call, so
    ``ratio`` compares cold to cold.  2048 ranks full / 512 smoke — at
    trivial rank counts the object loop wins (vectorization overhead),
    which is exactly why the gate pins the thousand-rank regime the
    sweeps run at.
    """
    from repro.distributed import ClusterSpec, NetworkConfig, Topology, build_events
    from repro.testing.netlowering import reference_events, reference_simulate

    cluster = ClusterSpec(node=machine, topology=Topology("torus2d"))
    cfg = NetworkConfig(c=2)
    ranks = 512 if smoke else 2048
    n = 16384
    args = (cluster, "summa25d", n, ranks, cfg)
    prog = build_events(*args)
    reps = min(repeats, 5)
    out = {
        "algorithm": "summa25d",
        "n": n,
        "ranks": ranks,
        "events": prog.n_events,
        "lower_ms": _best_of(lambda: build_events(*args), reps) * 1e3,
        "reference_lower_ms": _best_of(lambda: reference_events(*args), 2 if smoke else 1)
        * 1e3,
        "events_ms": _best_cold(
            lambda: build_events(*args), lambda p: p.simulate(), reps
        )
        * 1e3,
        "ranks_ms": _best_of(lambda: reference_simulate(prog), min(reps, 3)) * 1e3,
    }
    out["ratio"] = out["ranks_ms"] / out["events_ms"]
    out["lower_ratio"] = out["reference_lower_ms"] / out["lower_ms"]
    return out


def bench_study_service(machine, smoke: bool, requests: int = 100) -> dict:
    """The service under overlapping load, then hot-lookup latency.

    *requests* identical study queries are launched concurrently on one
    event loop against a fresh service + store: single-flight dedup
    must compute each unique cell exactly once (``dedup_ratio`` =
    requested/computed, gated >= ``DEDUP_FLOOR``).  The grid is
    cost-only so the benchmark times coordination, not numerics.  With
    the store warm, a burst of sequential single-cell queries measures
    the store-served path end to end — key derivation, LRU hit, result
    assembly — per lookup (``hot_ms``, gated < ``HOT_LOOKUP_LIMIT_MS``).
    A burst of sequential whole-grid queries then times what a client
    re-asking the grid pays: one pass over every cell of the request,
    response included (``hot_query_ms``, the median query, gated <
    ``HOT_QUERY_LIMIT_MS``).  ``hot_ms`` alone cannot see per-grid
    costs such as a task or a key hash per cell.  The same burst
    through the server's request handler times the wire reply too:
    request decoding and the encoded reply bytes (``hot_reply_ms``,
    the median, gated < ``HOT_REPLY_LIMIT_MS``).
    """
    import asyncio
    import tempfile

    from repro.observability.metrics import registry
    from repro.service import StudyRequest, StudyService
    from repro.service.cells import ReplyEncoder
    from repro.service.server import _handle_request

    sizes = (128,) if smoke else (256,)
    req = StudyRequest(
        ("openblas", "strassen", "caps"), sizes, threads=(1, 2, 3, 4),
        execute_max_n=0,
    )
    specs = req.cells()
    lookups = queries = 200

    async def drive(store):
        async with StudyService(machine, store=store) as svc:
            snap = registry().snapshot()
            t0 = time.perf_counter()
            await asyncio.gather(*(svc.query(req) for _ in range(requests)))
            cold_s = time.perf_counter() - t0
            delta = registry().delta_since(snap)
            t0 = time.perf_counter()
            for i in range(lookups):
                await svc.query_cell(specs[i % len(specs)])
            hot_s = time.perf_counter() - t0
            query_s = []
            for _ in range(queries):
                t0 = time.perf_counter()
                await svc.query(req)
                query_s.append(time.perf_counter() - t0)
            encoder = ReplyEncoder(svc.config.cache_entries)
            message = {"op": "query", "request": req.to_dict()}
            reply_s = []
            for _ in range(queries):
                t0 = time.perf_counter()
                await _handle_request(svc, message, encoder)
                reply_s.append(time.perf_counter() - t0)
        return (cold_s, delta, hot_s, statistics.median(query_s),
                statistics.median(reply_s))

    with tempfile.TemporaryDirectory() as tmp:
        cold_s, delta, hot_s, query_s, reply_s = asyncio.run(drive(tmp))

    requested = delta.get("service.cells_requested", 0)
    computed = delta.get("service.cells_computed", 0)
    return {
        "requests": requests,
        "cells_per_request": len(specs),
        "cold_s": cold_s,
        "cells_requested": int(requested),
        "cells_computed": int(computed),
        "dedup_ratio": requested / computed if computed else float("inf"),
        "hot_lookups": lookups,
        "hot_ms": hot_s / lookups * 1e3,
        "hot_queries": queries,
        "hot_query_ms": query_s * 1e3,
        "hot_reply_ms": reply_s * 1e3,
    }


def bench_trace_overhead(machine, repeats: int, sizes: tuple[int, ...]) -> dict:
    """Estimated cost of *disabled* tracing on the gated sections.

    Two measurements compose the estimate: the per-call cost of the
    disabled ``trace.span()`` fast path (a global load plus ``is
    None``), and the number of span sites each gated workload passes
    through (counted by running it once under a live tracer).  The
    product over the section's wall time is the worst-case relative
    overhead instrumentation adds when tracing is off; the smoke gate
    asserts it stays under ``OVERHEAD_LIMIT_PCT``.
    """
    from repro.algorithms.registry import paper_algorithms
    from repro.observability import trace as obtrace

    calls = 200_000
    span = obtrace.span

    def spin():
        for _ in range(calls):
            span("overhead-probe")

    per_call_s = _best_of(spin, repeats) / calls

    graph = _wide_graph(2000)
    sched = Scheduler(machine, threads=4, engine="fast")
    with obtrace.tracing() as tr:
        sched.run(graph)
    sched_spans = len(tr)
    sched_s = _best_of(lambda: sched.run(graph), repeats)

    def build_matrix():
        for alg in paper_algorithms(machine):
            for n in sizes:
                for p in (1, 2, 3, 4):
                    alg.build_arena(n, p)

    with obtrace.tracing() as tr:
        build_matrix()
    build_spans = len(tr)
    build_s = _best_of(build_matrix, min(repeats, 3))

    out = {
        "per_call_ns": per_call_s * 1e9,
        "scheduler_spans": sched_spans,
        "scheduler_pct": 100.0 * sched_spans * per_call_s / sched_s,
        "graph_build_spans": build_spans,
        "graph_build_pct": 100.0 * build_spans * per_call_s / build_s,
    }
    out["max_pct"] = max(out["scheduler_pct"], out["graph_build_pct"])
    return out


def bench_cache_sim(repeats: int) -> dict:
    """64 KiB stride-64 stream through the LRU hierarchy."""
    from repro.testing.cachesim import CacheHierarchySim

    spec = CacheHierarchySpec.haswell_like()

    def stream():
        sim = CacheHierarchySim(spec)
        sim.access_range(0, 64 * 1024, stride=64)

    return {"stream_ms": _best_of(stream, repeats) * 1e3}


def run_suite(smoke: bool) -> dict:
    machine = haswell_e3_1225()
    if smoke:
        repeats, sizes, cache_n = 5, (512, 1024), 256
    else:
        repeats, sizes, cache_n = 9, (512, 1024, 2048, 4096), 512
    return {
        "scheduler_wide2000": bench_scheduler(machine, repeats),
        "matrix_cost": bench_matrix(machine, sizes),
        "compiled": bench_compiled(machine, sizes, repeats),
        "study_e2e": bench_study_e2e(machine, sizes),
        "lowering_cache": bench_lowering_cache(machine, cache_n, repeats),
        "cache_sim64k": bench_cache_sim(repeats),
        # A full object pass takes seconds, not milliseconds.
        "graph_build": bench_graph_build(machine, sizes, 5 if smoke else 3),
        "study_parallel": bench_study_parallel(machine, sizes),
        "network_sim": bench_network_sim(machine, smoke, repeats),
        "study_service": bench_study_service(machine, smoke),
        "trace_overhead": bench_trace_overhead(machine, repeats, sizes),
    }


def print_suite(name: str, suite: dict) -> None:
    print(f"== {name} ==")
    for bench, fields in suite.items():
        parts = []
        for key, value in fields.items():
            if isinstance(value, float):
                parts.append(f"{key}={value:.3f}")
            else:
                parts.append(f"{key}={value}")
        print(f"  {bench:20s} " + "  ".join(parts))


def gate(current: dict, baseline: dict) -> int:
    """Compare gated ratios against the baseline; 0 = pass."""
    failures = []
    for bench, field in GATED.items():
        base = baseline.get(bench, {}).get(field)
        now = current.get(bench, {}).get(field)
        if base is None or now is None:
            failures.append(f"{bench}: missing {field} (base={base}, now={now})")
            continue
        floor = base * (1.0 - TOLERANCE)
        status = "ok" if now >= floor else "REGRESSION"
        print(
            f"  {bench:20s} {field}: now {now:.2f}x vs baseline {base:.2f}x "
            f"(floor {floor:.2f}x) {status}"
        )
        if now < floor:
            failures.append(
                f"{bench}: {field} {now:.2f}x < floor {floor:.2f}x "
                f"(baseline {base:.2f}x, tolerance {TOLERANCE:.0%})"
            )
    comp = current.get("compiled", {})
    cratio = comp.get("ratio")
    if cratio is None:
        failures.append("compiled: missing ratio")
    elif not comp.get("available", False):
        failures.append(
            f"compiled: engine unavailable on this host "
            f"({comp.get('reason', '?')}); cannot verify the "
            f"{COMPILED_FLOOR:.0f}x floor"
        )
    else:
        status = "ok" if cratio >= COMPILED_FLOOR else "TOO SLOW"
        print(
            f"  {'compiled':20s} ratio: {cratio:.2f}x compiled speedup over "
            f"fast on the matrix sweeps (floor {COMPILED_FLOOR:.1f}x) {status}"
        )
        if cratio < COMPILED_FLOOR:
            failures.append(
                f"compiled: speedup {cratio:.2f}x below the absolute "
                f"{COMPILED_FLOOR:.1f}x floor"
            )
    temp_mb = current.get("study_e2e", {}).get("compiled_verified_temp_mb")
    if temp_mb is None:
        failures.append("study_e2e: missing compiled_verified_temp_mb")
    else:
        status = "ok" if temp_mb <= TEMP_MB_LIMIT else "TOO HIGH"
        print(
            f"  {'study_e2e':20s} compiled_verified_temp_mb: {temp_mb:.1f} MiB "
            f"planned temporaries of the largest program run (limit "
            f"{TEMP_MB_LIMIT:.0f} MiB) {status}"
        )
        if temp_mb > TEMP_MB_LIMIT:
            failures.append(
                f"study_e2e: planned temporaries {temp_mb:.1f} MiB exceed "
                f"{TEMP_MB_LIMIT:.0f} MiB"
            )
    study = current.get("study_e2e", {})
    products = study.get("compiled_verified_reference_products")
    if products is None:
        failures.append("study_e2e: missing compiled_verified_reference_products")
    else:
        want = sum(1 for n in study.get("sizes", ()) if n <= VERIFY_MAX_N)
        status = "ok" if products == want else "WRONG"
        print(
            f"  {'study_e2e':20s} compiled_verified_reference_products: "
            f"{products} (one per verified size: {want}) {status}"
        )
        if products != want:
            failures.append(
                f"study_e2e: {products} reference products for {want} "
                f"verified sizes"
            )
    share = current.get("study_e2e", {}).get("compiled_measure_share")
    if share is None:
        failures.append("study_e2e: missing compiled_measure_share")
    else:
        status = "ok" if share <= MEASURE_SHARE_LIMIT else "TOO HIGH"
        print(
            f"  {'study_e2e':20s} compiled_measure_share: {share:.3f} of the "
            f"compiled study's CPU time (limit {MEASURE_SHARE_LIMIT:.2f}) {status}"
        )
        if share > MEASURE_SHARE_LIMIT:
            failures.append(
                f"study_e2e: measure share {share:.3f} exceeds "
                f"{MEASURE_SHARE_LIMIT:.2f}"
            )
    netsim = current.get("network_sim", {})
    nratio = netsim.get("ratio")
    if nratio is None:
        failures.append("network_sim: missing ratio")
    else:
        status = "ok" if nratio >= NETWORK_FLOOR else "TOO SLOW"
        print(
            f"  {'network_sim':20s} ratio: {nratio:.2f}x arena-engine speedup "
            f"over the per-rank object loop at P={netsim.get('ranks', '?')} "
            f"(floor {NETWORK_FLOOR:.1f}x) {status}"
        )
        if nratio < NETWORK_FLOOR:
            failures.append(
                f"network_sim: arena speedup {nratio:.2f}x below the "
                f"absolute {NETWORK_FLOOR:.1f}x floor"
            )
    lratio = netsim.get("lower_ratio")
    if lratio is None:
        failures.append("network_sim: missing lower_ratio")
    else:
        status = "ok" if lratio >= LOWER_FLOOR else "TOO SLOW"
        print(
            f"  {'network_sim':20s} lower_ratio: {lratio:.2f}x batched-lowering "
            f"speedup over the scalar reference at P={netsim.get('ranks', '?')} "
            f"(floor {LOWER_FLOOR:.1f}x) {status}"
        )
        if lratio < LOWER_FLOOR:
            failures.append(
                f"network_sim: lowering speedup {lratio:.2f}x below the "
                f"absolute {LOWER_FLOOR:.1f}x floor"
            )
    overhead = current.get("trace_overhead", {}).get("max_pct")
    if overhead is None:
        failures.append("trace_overhead: missing max_pct")
    else:
        status = "ok" if overhead <= OVERHEAD_LIMIT_PCT else "TOO HIGH"
        print(
            f"  {'trace_overhead':20s} max_pct: {overhead:.3f}% disabled-"
            f"tracing overhead (limit {OVERHEAD_LIMIT_PCT:.1f}%) {status}"
        )
        if overhead > OVERHEAD_LIMIT_PCT:
            failures.append(
                f"trace_overhead: estimated disabled-tracing overhead "
                f"{overhead:.3f}% exceeds {OVERHEAD_LIMIT_PCT:.1f}%"
            )
    service = current.get("study_service", {})
    hot_ms = service.get("hot_ms")
    hot_query_ms = service.get("hot_query_ms")
    hot_reply_ms = service.get("hot_reply_ms")
    dedup = service.get("dedup_ratio")
    if None in (hot_ms, hot_query_ms, hot_reply_ms, dedup):
        failures.append(
            "study_service: missing hot_ms/hot_query_ms/hot_reply_ms/dedup_ratio"
        )
    else:
        status = "ok" if hot_ms <= HOT_LOOKUP_LIMIT_MS else "TOO SLOW"
        print(
            f"  {'study_service':20s} hot_ms: {hot_ms:.4f} ms store-served "
            f"lookup (limit {HOT_LOOKUP_LIMIT_MS:.1f} ms) {status}"
        )
        if hot_ms > HOT_LOOKUP_LIMIT_MS:
            failures.append(
                f"study_service: hot lookup {hot_ms:.4f} ms exceeds "
                f"{HOT_LOOKUP_LIMIT_MS:.1f} ms"
            )
        status = "ok" if hot_query_ms <= HOT_QUERY_LIMIT_MS else "TOO SLOW"
        print(
            f"  {'study_service':20s} hot_query_ms: {hot_query_ms:.4f} ms "
            f"store-served {service.get('cells_per_request', '?')}-cell grid "
            f"query (limit {HOT_QUERY_LIMIT_MS:.2f} ms) {status}"
        )
        if hot_query_ms > HOT_QUERY_LIMIT_MS:
            failures.append(
                f"study_service: hot grid query {hot_query_ms:.4f} ms exceeds "
                f"{HOT_QUERY_LIMIT_MS:.2f} ms"
            )
        status = "ok" if hot_reply_ms <= HOT_REPLY_LIMIT_MS else "TOO SLOW"
        print(
            f"  {'study_service':20s} hot_reply_ms: {hot_reply_ms:.4f} ms "
            f"store-served grid query with its encoded reply "
            f"(limit {HOT_REPLY_LIMIT_MS:.2f} ms) {status}"
        )
        if hot_reply_ms > HOT_REPLY_LIMIT_MS:
            failures.append(
                f"study_service: hot grid reply {hot_reply_ms:.4f} ms exceeds "
                f"{HOT_REPLY_LIMIT_MS:.2f} ms"
            )
        status = "ok" if dedup >= DEDUP_FLOOR else "TOO LOW"
        print(
            f"  {'study_service':20s} dedup_ratio: {dedup:.1f}x under "
            f"{service.get('requests', '?')} overlapping requests "
            f"(floor {DEDUP_FLOOR:.1f}x) {status}"
        )
        if dedup < DEDUP_FLOOR:
            failures.append(
                f"study_service: dedup ratio {dedup:.1f}x below floor "
                f"{DEDUP_FLOOR:.1f}x"
            )
    if failures:
        print("\nFAIL:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nPASS: no gated ratio regressed more than "
          f"{TOLERANCE:.0%} vs baseline")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="quick reduced suite, gate vs the baseline JSON")
    ap.add_argument("--write", action="store_true",
                    help="run full + smoke suites and update the baseline JSON")
    ap.add_argument("--json", type=Path, default=DEFAULT_JSON,
                    help=f"baseline path (default {DEFAULT_JSON.name})")
    args = ap.parse_args()

    if args.smoke:
        suite = run_suite(smoke=True)
        print_suite("smoke", suite)
        if not args.json.exists():
            print(f"\nno baseline at {args.json}; nothing to gate against")
            return 1
        baseline = json.loads(args.json.read_text())
        print(f"\ngating vs {args.json.name} "
              f"(recorded {baseline['meta'].get('date', '?')}):")
        return gate(suite, baseline.get("smoke", {}))

    full = run_suite(smoke=False)
    print_suite("full", full)
    if args.write:
        smoke = run_suite(smoke=True)
        print_suite("smoke", smoke)
        from repro.runtime.compiledpath import compiled_cc
        from repro.runtime.scheduler import ENGINES

        try:
            import numba  # noqa: F401 - presence probe only

            numba_version = numba.__version__
        except ImportError:
            numba_version = None
        payload = {
            "meta": {
                "date": time.strftime("%Y-%m-%d"),
                "python": platform.python_version(),
                "machine": platform.machine(),
                "engines": list(ENGINES),
                "cc": compiled_cc(),
                "numba": numba_version,
                "note": (
                    "Wall-clock fields are host-specific; only the "
                    "reference/fast and cold/hit ratios are gated."
                ),
            },
            "full": full,
            "smoke": smoke,
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
