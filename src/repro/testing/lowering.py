"""Task-at-a-time lowering of the dense algorithms (``arena_lowering`` oracle).

The algorithms define their tasks once, in the template recursions that
stamp columnar arenas (``build_arena``).  This module re-derives the
same graphs independently: a plain recursive walk that emits one task
at a time through the :class:`~repro.runtime.openmp.OpenMP` region
builder, cost-only, with no template stamping.  The
differential oracle (:func:`repro.testing.oracle.differential_lowering_check`)
demands the two be bit-identical — same tids, names, dependencies, cost
bytes, untied flags and creator links.

Only the algorithms' cost helpers are shared; the structure (emission
order, dependency wiring, work-sharing chunks, BFS/DFS dispatch) is
written out here a second time, on purpose.
"""

from __future__ import annotations

from ..algorithms.blocked import BlockedGemm
from ..algorithms.caps import CapsStrassen
from ..algorithms.kernels import addition_cost, blocked_tile_cost, leaf_gemm_cost
from ..algorithms.strassen import StrassenWinograd
from ..algorithms.tuning import tile_grid
from ..runtime.arena import TaskArena
from ..runtime.openmp import OpenMP

__all__ = ["object_lowering"]


def object_lowering(alg, n: int, threads: int) -> TaskArena:
    """The cost-only arena of *alg*'s ``(n, threads)`` lowering, emitted
    one task at a time."""
    if isinstance(alg, BlockedGemm):
        return _blocked(alg, n, threads)
    if isinstance(alg, StrassenWinograd):
        omp = OpenMP(f"{alg.name}[n={n}]", threads)
        _strassen(alg, omp, alg.padded_n(n), (), None)
        return omp.graph
    if isinstance(alg, CapsStrassen):
        omp = OpenMP(f"{alg.name}[n={n}]", threads)
        _caps(alg, omp, alg.padded_n(n), 0, ())
        return omp.graph
    raise TypeError(f"no object lowering for {type(alg).__name__}")


def _blocked(alg: BlockedGemm, n: int, threads: int) -> TaskArena:
    omp = OpenMP(f"openblas[n={n}]", threads)
    grid = tile_grid(n, threads, alg.min_tiles_per_thread)
    total_flops = alg.flop_count(n)
    total_dram = alg.dram_traffic_bytes(n)
    for ro, rs in grid:
        for co, cs in grid:
            share = total_dram * (2.0 * rs * cs * n / total_flops)
            cost = blocked_tile_cost(rs, cs, n, alg.machine, alg.efficiency, share)
            omp.task(f"tile/({ro},{co})", cost)
    return omp.graph


def _strassen(alg: StrassenWinograd, omp: OpenMP, s: int, deps, created_by):
    """BOTS recursion: pre -> seven children -> post per node."""
    machine = alg.machine
    if s <= alg.cutoff:
        cost = leaf_gemm_cost(s, machine, alg.leaf_efficiency, alg.leaf_locality)
        return omp.task(f"leaf/{s}", cost, deps, created_by=created_by)
    if s % 2 == 1 and s > alg.grain:
        core = _strassen(alg, omp, s - 1, deps, created_by)
        return omp.task(
            f"peel/{s}", alg._peel_cost(s - 1), [core], created_by=created_by
        )
    if s <= alg.grain:
        return omp.task(
            f"grain/{s}", alg.subtree_cost(s), deps, created_by=created_by
        )
    h = s // 2
    pre = omp.task(
        f"pre/{s}",
        addition_cost(h, alg.pre_adds, machine, alg.add_locality),
        deps,
        created_by=created_by,
    )
    kids = [_strassen(alg, omp, h, (pre,), pre) for _ in range(7)]
    return omp.task(
        f"post/{s}",
        addition_cost(h, alg.post_adds, machine, alg.add_locality),
        kids,
        created_by=created_by,
    )


def _caps(alg: CapsStrassen, omp: OpenMP, s: int, depth: int, deps):
    """Algorithm 2: a BFS step above ``cutoff_depth``, DFS below."""
    machine = alg.machine
    if s <= alg.leaf_cutoff:
        cost = leaf_gemm_cost(s, machine, alg.leaf_efficiency, alg.leaf_locality)
        return omp.task(f"leaf/{s}", cost, deps)
    h = s // 2
    if depth >= alg.cutoff_depth:
        # Work-shared loops: one chunk per thread of the region.
        if s <= alg.dfs_grain:
            return omp.parallel_for(f"dfs-grain/{s}", alg.subtree_cost(s), deps)
        add8 = addition_cost(h, 8, machine, alg.add_locality)
        prev = omp.parallel_for(f"dfs-pre/{s}", add8, deps)
        for _ in range(7):
            prev = _caps(alg, omp, h, depth + 1, (prev,))
        add7 = addition_cost(h, 7, machine, alg.add_locality)
        return omp.parallel_for(f"dfs-post/{s}", add7, [prev])

    one = addition_cost(h, 1, machine, alg.add_locality)
    s1 = omp.task(f"bfs-s1/{s}", one, deps)
    s2 = omp.task(f"bfs-s2/{s}", one, [s1])
    s3 = omp.task(f"bfs-s3/{s}", one, deps)
    s4 = omp.task(f"bfs-s4/{s}", one, [s2])
    t1 = omp.task(f"bfs-t1/{s}", one, deps)
    t2 = omp.task(f"bfs-t2/{s}", one, [t1])
    t3 = omp.task(f"bfs-t3/{s}", one, deps)
    t4 = omp.task(f"bfs-t4/{s}", one, [t2])
    waits = [list(deps), list(deps), [s4], [t4], [s1, t1], [s2, t2], [s3, t3]]
    if alg.pack:
        for idx, blocks in alg._PACK_BLOCKS.items():
            cost = alg._pack_cost(h, blocks)
            waits[idx] = [omp.task(f"bfs-pack{idx + 1}/{s}", cost, waits[idx])]
    kids = [_caps(alg, omp, h, depth + 1, tuple(w)) for w in waits]
    u = omp.task(
        f"bfs-u/{s}",
        addition_cost(h, 3, machine, alg.add_locality),
        [kids[0], kids[4], kids[5], kids[6]],
    )
    outs = [
        omp.task(f"bfs-c11/{s}", one, [kids[0], kids[1]]),
        omp.task(f"bfs-c12/{s}", one, [u, kids[2]]),
        omp.task(f"bfs-c21/{s}", one, [u, kids[3]]),
        omp.task(f"bfs-c22/{s}", one, [u, kids[4]]),
    ]
    if alg.pack:
        return omp.task(f"bfs-unpack/{s}", alg._pack_cost(h, 4), outs)
    return omp.taskwait(outs, name=f"bfs-join/{s}")
