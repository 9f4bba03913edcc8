"""Communication Avoiding Parallel Strassen — the paper's CAPS fixture
(§IV-C).

CAPS views the Strassen recursion as a tree walk that chooses, per
level, between:

* **BFS steps** (``depth < cutoff_depth``, the paper uses 4): the seven
  sub-problems proceed as *independent untied tasks* working out of
  private contiguous buffers.  The extra buffer memory buys reduced
  communication — modelled here as a higher *locality* factor (operand
  re-reads hit the LLC instead of the DRAM channel) and as fine-grained
  addition tasks with precise dependencies (S/T/U chains), so addition
  work overlaps multiplies instead of serializing per node;

* **DFS steps** (``depth >= cutoff_depth``): all workers cooperate on
  each of the seven sub-problems *in sequence*; the additions and the
  sub-tree stages are OpenMP work-shared loops (``parallel_for`` row
  chunks).

Algorithm 2 of the paper is the dispatch in :meth:`CapsStrassen._recurse`::

    if DEPTH < CUTOFF_DEPTH: execute Strassen BFS
    else:                    execute Strassen DFS
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..linalg.dense import pad_to_power_of_two, working_set_bytes
from ..linalg.fastmm import recursion_depth, winograd_product
from ..machine.specs import MachineSpec
from ..runtime.arena import (
    EXT_DEP,
    NameInterner,
    SubtreeTemplate,
    TemplateBuilder,
)
from ..runtime.cost import ZERO_COST, TaskCost
from ..runtime.openmp import OpenMP
from ..runtime.task import Task
from ..util.errors import ConfigurationError
from ..util.validation import next_power_of_two, require_fraction, require_positive
from ..observability import trace
from .base import BuildResult, MatmulAlgorithm, record_lowering
from .kernels import addition_cost, leaf_gemm_cost
from .traffic import streaming_traffic

__all__ = ["CapsStrassen"]

_WORD = 8


def _row_ranges(h: int, chunks: int) -> list[tuple[int, int]]:
    """Static work-sharing split of *h* rows into *chunks* ranges."""
    chunks = min(chunks, h)
    base, extra = divmod(h, chunks)
    ranges = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


class CapsStrassen(MatmulAlgorithm):
    """CAPS: Strassen with BFS/DFS hybrid traversal.

    Parameters
    ----------
    machine:
        Target platform.
    cutoff_depth:
        Tree level at which traversal switches from BFS to DFS (the
        paper's empirically tuned 4).
    leaf_cutoff:
        Dense-solver cutover dimension (64, shared with Strassen).
    dfs_grain:
        In DFS mode, sub-trees at or below this dimension execute as one
        work-shared stage.
    leaf_efficiency:
        Dense leaf solver efficiency (same solver as Strassen's).
    add_locality / leaf_locality:
        LLC-residency probabilities; *higher* than Strassen's — this is
        the communication avoidance (Eq. 8's reduced bandwidth cost).
    pack:
        Emit the BFS buffer-packing tasks ("the BFS approach requires
        additional buffer memory", §IV-C): each BFS child whose factors
        are raw operand quadrants gets them copied into private
        contiguous buffers.  Packing costs time (streaming copies) but
        is what buys the high locality; disabling it models an
        idealized zero-copy CAPS (used by the ablation benchmarks).
    """

    name = "caps"
    display_name = "CAPS"

    #: BFS children needing packed operand blocks: child index -> count
    #: (p1 = A11*B11 and p2 = A12*B21 pack both factors; p3/p4 pack the
    #: one raw factor; p5-p7 multiply already-contiguous S/T buffers).
    _PACK_BLOCKS = {0: 2, 1: 2, 2: 1, 3: 1}

    def __init__(
        self,
        machine: MachineSpec,
        cutoff_depth: int = 4,
        leaf_cutoff: int = 64,
        dfs_grain: int = 256,
        leaf_efficiency: float = 0.38,
        add_locality: float = 0.97,
        leaf_locality: float = 0.45,
        pack: bool = True,
    ):
        super().__init__(machine)
        if cutoff_depth < 0:
            raise ConfigurationError(
                f"cutoff_depth must be >= 0, got {cutoff_depth}"
            )
        require_positive(leaf_cutoff, "leaf_cutoff")
        require_fraction(leaf_efficiency, "leaf_efficiency")
        self.cutoff_depth = cutoff_depth
        self.leaf_cutoff = leaf_cutoff
        self.dfs_grain = max(dfs_grain, leaf_cutoff)
        self.leaf_efficiency = leaf_efficiency
        self.add_locality = add_locality
        self.leaf_locality = leaf_locality
        self.pack = pack
        self._cost_memo: dict[int, TaskCost] = {}
        self._interner = NameInterner()
        self._tpl_memo: dict[tuple[int, int, int], SubtreeTemplate] = {}

    def __getstate__(self) -> dict:
        """Drop the per-process template cache (study workers rebuild
        locally — cheaper than pickling megabytes of arrays)."""
        state = dict(self.__dict__)
        state.pop("_tpl_memo", None)
        state.pop("_interner", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._interner = NameInterner()
        self._tpl_memo = {}

    # ---- structural properties ----------------------------------------

    def padded_n(self, n: int) -> int:
        require_positive(n, "n")
        return n if n <= self.leaf_cutoff else next_power_of_two(n)

    def flop_count(self, n: int) -> float:
        """Same operation count as Strassen-Winograd (the traversal
        order does not change the arithmetic)."""
        return self._flops(self.padded_n(n))

    def _flops(self, s: int) -> float:
        if s <= self.leaf_cutoff:
            return 2.0 * float(s) ** 3
        h = s // 2
        return 7.0 * self._flops(h) + 15.0 * float(h) ** 2

    def memory_footprint_bytes(self, n: int) -> float:
        """BFS steps replicate operand buffers per branch — the paper's
        "additional buffer memory" — so CAPS needs more memory than the
        classic task recursion at the same n."""
        m = self.padded_n(n)
        depth = recursion_depth(m, self.leaf_cutoff)
        bfs_levels = min(depth, self.cutoff_depth, 4)
        return working_set_bytes(m) + 15.0 * (m / 2) ** 2 * _WORD * (bfs_levels + 1)

    def _pack_cost(self, h: int, n_blocks: int) -> TaskCost:
        """Cost of copying *n_blocks* ``h x h`` operand blocks into
        contiguous private buffers (read + write per block)."""
        nbytes = 2.0 * n_blocks * h * h * _WORD
        stream = streaming_traffic(nbytes, self.machine, self.add_locality)
        return TaskCost(
            flops=1.0,  # negligible; keeps the task non-zero-cost
            efficiency=1.0,
            bytes_l1=stream.l1,
            bytes_l2=stream.l2,
            bytes_l3=stream.l3,
            bytes_dram=stream.dram,
        )

    def subtree_cost(self, s: int) -> TaskCost:
        """Aggregate cost of a sub-tree at dimension *s* with CAPS's
        locality factors."""
        if s in self._cost_memo:
            return self._cost_memo[s]
        if s <= self.leaf_cutoff:
            cost = leaf_gemm_cost(
                s, self.machine, self.leaf_efficiency, self.leaf_locality
            )
        else:
            h = s // 2
            pre = addition_cost(h, 8, self.machine, self.add_locality)
            post = addition_cost(h, 7, self.machine, self.add_locality)
            cost = pre + post + self.subtree_cost(h).scaled(7.0)
        self._cost_memo[s] = cost
        return cost

    # ---- lowering --------------------------------------------------------

    def build(
        self, n: int, threads: int, seed: int = 0, execute: bool = True
    ) -> BuildResult:
        """Lower to the BFS/DFS hybrid task graph."""
        require_positive(threads, "threads")
        self.check_memory(n)
        a, b, c = self._operands(n, seed, execute)
        m = self.padded_n(n)

        ap, bp, cp = a, b, c
        if execute and m != n:
            # The recursion runs on the padded problem; C is the valid
            # region of the padded product (a view, so no extra task).
            ap, _ = pad_to_power_of_two(a)
            bp, _ = pad_to_power_of_two(b)
            cp = np.zeros((m, m), dtype=np.float64)
            c = cp[:n, :n]

        omp = OpenMP(f"caps[n={n}]", threads)
        self._threads = threads
        self._recurse(omp, ap, bp, cp, m, depth=0, deps=(), execute=execute)

        return BuildResult(
            graph=omp.graph,
            n=n,
            a=a,
            b=b,
            c=c,
            variant="winograd",
            cutoff=self.leaf_cutoff,
        )

    # ---- templated lowering (arena path) --------------------------------

    def _arena_template(self, s: int, depth: int, threads: int) -> SubtreeTemplate:
        """Relocatable template of the subtree at *(s, depth)*.

        Memoized by ``(s, min(depth, cutoff_depth), threads)``: beyond
        the BFS/DFS switch the structure depends only on *s*, and the
        DFS work-sharing chunk count depends on *threads*.  Emission
        order mirrors :meth:`_recurse` / :meth:`_bfs_step` /
        :meth:`_dfs_step` exactly.
        """
        key = (s, min(depth, self.cutoff_depth), threads)
        tpl = self._tpl_memo.get(key)
        if tpl is not None:
            return tpl
        tb = TemplateBuilder(self._interner)
        if s <= self.leaf_cutoff:
            cost = leaf_gemm_cost(
                s, self.machine, self.leaf_efficiency, self.leaf_locality
            )
            tb.emit(f"leaf/{s}", cost, (EXT_DEP,))
        elif depth < self.cutoff_depth:
            self._tpl_bfs(tb, s, depth, threads)
        else:
            self._tpl_dfs(tb, s, depth, threads)
        tpl = tb.finish()
        self._tpl_memo[key] = tpl
        return tpl

    def _tpl_parallel_for(self, tb, name, total_cost, deps, k) -> int:
        """Template twin of ``OpenMP.parallel_for`` (static schedule,
        *k* chunks, zero-cost join); returns the join's local id."""
        per_chunk = total_cost.scaled(1.0 / k)
        chunks = [tb.emit(f"{name}[{i}]", per_chunk, deps) for i in range(k)]
        return tb.emit(f"{name}/join", ZERO_COST, chunks)

    def _tpl_bfs(self, tb, s, depth, threads) -> None:
        h = s // 2
        one_add = addition_cost(h, 1, self.machine, self.add_locality)
        ext = (EXT_DEP,)
        ts1 = tb.emit(f"bfs-s1/{s}", one_add, ext)
        ts2 = tb.emit(f"bfs-s2/{s}", one_add, (ts1,))
        ts3 = tb.emit(f"bfs-s3/{s}", one_add, ext)
        ts4 = tb.emit(f"bfs-s4/{s}", one_add, (ts2,))
        tt1 = tb.emit(f"bfs-t1/{s}", one_add, ext)
        tt2 = tb.emit(f"bfs-t2/{s}", one_add, (tt1,))
        tt3 = tb.emit(f"bfs-t3/{s}", one_add, ext)
        tt4 = tb.emit(f"bfs-t4/{s}", one_add, (tt2,))
        dep_lists = [
            [EXT_DEP],
            [EXT_DEP],
            [ts4],
            [tt4],
            [ts1, tt1],
            [ts2, tt2],
            [ts3, tt3],
        ]
        if self.pack:
            for idx, n_blocks in self._PACK_BLOCKS.items():
                pack_task = tb.emit(
                    f"bfs-pack{idx + 1}/{s}",
                    self._pack_cost(h, n_blocks),
                    dep_lists[idx],
                )
                dep_lists[idx] = [pack_task]
        child = self._arena_template(h, depth + 1, threads)
        kids = [tb.splice(child, ext=tuple(d)) for d in dep_lists]
        tb_u = addition_cost(h, 3, self.machine, self.add_locality)
        tu = tb.emit(f"bfs-u/{s}", tb_u, (kids[0], kids[4], kids[5], kids[6]))
        c_tasks = [
            tb.emit(f"bfs-c11/{s}", one_add, (kids[0], kids[1])),
            tb.emit(f"bfs-c12/{s}", one_add, (tu, kids[2])),
            tb.emit(f"bfs-c21/{s}", one_add, (tu, kids[3])),
            tb.emit(f"bfs-c22/{s}", one_add, (tu, kids[4])),
        ]
        if self.pack:
            tb.emit(f"bfs-unpack/{s}", self._pack_cost(h, 4), c_tasks)
        else:
            tb.emit(f"bfs-join/{s}", ZERO_COST, c_tasks)

    def _tpl_dfs(self, tb, s, depth, threads) -> None:
        h = s // 2
        if s <= self.dfs_grain:
            self._tpl_parallel_for(
                tb, f"dfs-grain/{s}", self.subtree_cost(s), (EXT_DEP,), threads
            )
            return
        prev = self._tpl_parallel_for(
            tb,
            f"dfs-pre/{s}",
            addition_cost(h, 8, self.machine, self.add_locality),
            (EXT_DEP,),
            threads,
        )
        child = self._arena_template(h, depth + 1, threads)
        for _ in range(7):
            prev = tb.splice(child, ext=(prev,))
        self._tpl_parallel_for(
            tb,
            f"dfs-post/{s}",
            addition_cost(h, 7, self.machine, self.add_locality),
            (prev,),
            threads,
        )

    def build_arena(self, n: int, threads: int, seed: int = 0) -> BuildResult:
        """Cost-only lowering straight to a :class:`TaskArena` via
        template stamping."""
        require_positive(threads, "threads")
        require_positive(n, "n")
        self.check_memory(n)
        with trace.span("lower_arena", alg=self.name, n=n, threads=threads):
            m = self.padded_n(n)
            self._threads = threads
            tb = TemplateBuilder(self._interner)
            tb.splice(self._arena_template(m, 0, threads), ext=())
            return record_lowering(
                BuildResult(
                    graph=tb.to_arena(f"caps[n={n}]"),
                    n=n,
                    a=None,
                    b=None,
                    c=None,
                    variant="winograd",
                    cutoff=self.leaf_cutoff,
                )
            )

    def _recurse(self, omp, av, bv, cw, s, depth, deps, execute) -> Task:
        """Algorithm 2: choose BFS or DFS per level."""
        if s <= self.leaf_cutoff:
            cost = leaf_gemm_cost(
                s, self.machine, self.leaf_efficiency, self.leaf_locality
            )
            compute = None
            if execute:

                def compute(av=av, bv=bv, cw=cw):
                    cw[:, :] = av @ bv

            return omp.task(f"leaf/{s}", cost, deps, compute)

        if depth < self.cutoff_depth:
            return self._bfs_step(omp, av, bv, cw, s, depth, deps, execute)
        return self._dfs_step(omp, av, bv, cw, s, depth, deps, execute)

    # ---- BFS: task-parallel with precise dependencies --------------------

    def _bfs_step(self, omp, av, bv, cw, s, depth, deps, execute) -> Task:
        h = s // 2
        bufs: dict[str, np.ndarray] = {}
        if execute:
            names = ["s1", "s2", "s3", "s4", "t1", "t2", "t3", "t4"] + [
                f"p{i}" for i in range(1, 8)
            ]
            bufs = {name: np.empty((h, h), dtype=np.float64) for name in names}
            a11, a12 = av[:h, :h], av[:h, h:]
            a21, a22 = av[h:, :h], av[h:, h:]
            b11, b12 = bv[:h, :h], bv[:h, h:]
            b21, b22 = bv[h:, :h], bv[h:, h:]

        one_add = addition_cost(h, 1, self.machine, self.add_locality)

        def add_task(name: str, dep_list, fn: Callable | None) -> Task:
            return omp.task(f"{name}/{s}", one_add, dep_list, fn if execute else None)

        # Pre-addition chains: s1 -> s2 -> s4; s3; t1 -> t2 -> t4; t3.
        f = (
            {
                "s1": lambda: np.add(a21, a22, out=bufs["s1"]),
                "s2": lambda: np.subtract(bufs["s1"], a11, out=bufs["s2"]),
                "s3": lambda: np.subtract(a11, a21, out=bufs["s3"]),
                "s4": lambda: np.subtract(a12, bufs["s2"], out=bufs["s4"]),
                "t1": lambda: np.subtract(b12, b11, out=bufs["t1"]),
                "t2": lambda: np.subtract(b22, bufs["t1"], out=bufs["t2"]),
                "t3": lambda: np.subtract(b22, b12, out=bufs["t3"]),
                "t4": lambda: np.subtract(bufs["t2"], b21, out=bufs["t4"]),
            }
            if execute
            else {k: None for k in ("s1", "s2", "s3", "s4", "t1", "t2", "t3", "t4")}
        )
        ts1 = add_task("bfs-s1", deps, f["s1"])
        ts2 = add_task("bfs-s2", [ts1], f["s2"])
        ts3 = add_task("bfs-s3", deps, f["s3"])
        ts4 = add_task("bfs-s4", [ts2], f["s4"])
        tt1 = add_task("bfs-t1", deps, f["t1"])
        tt2 = add_task("bfs-t2", [tt1], f["t2"])
        tt3 = add_task("bfs-t3", deps, f["t3"])
        tt4 = add_task("bfs-t4", [tt2], f["t4"])

        if execute:
            operands = [
                (a11, b11, bufs["p1"], list(deps)),
                (a12, b21, bufs["p2"], list(deps)),
                (bufs["s4"], b22, bufs["p3"], [ts4]),
                (a22, bufs["t4"], bufs["p4"], [tt4]),
                (bufs["s1"], bufs["t1"], bufs["p5"], [ts1, tt1]),
                (bufs["s2"], bufs["t2"], bufs["p6"], [ts2, tt2]),
                (bufs["s3"], bufs["t3"], bufs["p7"], [ts3, tt3]),
            ]
        else:
            operands = [
                (None, None, None, list(deps)),
                (None, None, None, list(deps)),
                (None, None, None, [ts4]),
                (None, None, None, [tt4]),
                (None, None, None, [ts1, tt1]),
                (None, None, None, [ts2, tt2]),
                (None, None, None, [ts3, tt3]),
            ]

        if self.pack:
            # Copy raw operand quadrants into private contiguous buffers
            # before the affected children run (communication avoidance:
            # pay local copies, save channel traffic).  p1/p2 pack both
            # factors, p3 its B factor (b22), p4 its A factor (a22);
            # p5-p7 consume S/T buffers that are already contiguous.
            operands = [list(op) for op in operands]
            for idx, n_blocks in self._PACK_BLOCKS.items():
                pa, pb, _pc, dep_list = operands[idx]
                pack_a = idx in (0, 1, 3)
                pack_b = idx in (0, 1, 2)
                pack_compute = None
                if execute:
                    new_a = np.empty((h, h), dtype=np.float64) if pack_a else pa
                    new_b = np.empty((h, h), dtype=np.float64) if pack_b else pb

                    def pack_compute(
                        src_a=pa, src_b=pb, dst_a=new_a, dst_b=new_b,
                        pack_a=pack_a, pack_b=pack_b,
                    ):
                        if pack_a:
                            dst_a[:, :] = src_a
                        if pack_b:
                            dst_b[:, :] = src_b

                    operands[idx][0] = new_a
                    operands[idx][1] = new_b
                pack_task = omp.task(
                    f"bfs-pack{idx + 1}/{s}",
                    self._pack_cost(h, n_blocks),
                    dep_list,
                    pack_compute,
                )
                operands[idx][3] = [pack_task]
            operands = [tuple(op) for op in operands]

        kids = [
            self._recurse(omp, pa, pb, pc, h, depth + 1, tuple(d), execute)
            for pa, pb, pc, d in operands
        ]

        # Post additions: U chain then the four output blocks.
        u_cost = addition_cost(h, 3, self.machine, self.add_locality)
        u_bufs: dict[str, np.ndarray] = {}
        u_compute = None
        if execute:
            u_bufs = {k: np.empty((h, h), dtype=np.float64) for k in ("u2", "u3", "u4")}

            def u_compute():
                np.add(bufs["p1"], bufs["p6"], out=u_bufs["u2"])
                np.add(u_bufs["u2"], bufs["p7"], out=u_bufs["u3"])
                np.add(u_bufs["u2"], bufs["p5"], out=u_bufs["u4"])

        tu = omp.task(
            f"bfs-u/{s}", u_cost, [kids[0], kids[4], kids[5], kids[6]], u_compute
        )

        if self.pack and execute:
            # Results land in private buffers first, then get
            # redistributed to the canonical layout by the unpack task.
            c_dst = {k: np.empty((h, h), dtype=np.float64) for k in ("c11", "c12", "c21", "c22")}
        elif execute:
            c_dst = {
                "c11": cw[:h, :h],
                "c12": cw[:h, h:],
                "c21": cw[h:, :h],
                "c22": cw[h:, h:],
            }
        if execute:
            c_ops = [
                ("c11", [kids[0], kids[1]], lambda: np.add(bufs["p1"], bufs["p2"], out=c_dst["c11"])),
                ("c12", [tu, kids[2]], lambda: np.add(u_bufs["u4"], bufs["p3"], out=c_dst["c12"])),
                ("c21", [tu, kids[3]], lambda: np.subtract(u_bufs["u3"], bufs["p4"], out=c_dst["c21"])),
                ("c22", [tu, kids[4]], lambda: np.add(u_bufs["u3"], bufs["p5"], out=c_dst["c22"])),
            ]
        else:
            c_ops = [
                ("c11", [kids[0], kids[1]], None),
                ("c12", [tu, kids[2]], None),
                ("c21", [tu, kids[3]], None),
                ("c22", [tu, kids[4]], None),
            ]
        c_tasks = [add_task(f"bfs-{name}", dep_list, fn) for name, dep_list, fn in c_ops]
        if not self.pack:
            return omp.taskwait(c_tasks, name=f"bfs-join/{s}")
        # Redistribute the four result blocks back into C's layout.
        unpack_compute = None
        if execute:

            def unpack_compute():
                cw[:h, :h] = c_dst["c11"]
                cw[:h, h:] = c_dst["c12"]
                cw[h:, :h] = c_dst["c21"]
                cw[h:, h:] = c_dst["c22"]

        return omp.task(
            f"bfs-unpack/{s}", self._pack_cost(h, 4), c_tasks, unpack_compute
        )

    # ---- DFS: sequential sub-problems, work-shared loops ------------------

    def _dfs_step(self, omp, av, bv, cw, s, depth, deps, execute) -> Task:
        h = s // 2
        threads = self._threads

        if s <= self.dfs_grain:
            # Work-shared stage over the whole remaining sub-tree.
            cost = self.subtree_cost(s)
            computes = None
            if execute:

                def whole(av=av, bv=bv, cw=cw):
                    cw[:, :] = winograd_product(av, bv, self.leaf_cutoff)

                computes = [whole] + [None] * (threads - 1)
            return omp.parallel_for(
                f"dfs-grain/{s}", cost, deps, chunks=threads, chunk_computes=computes
            )

        bufs: dict[str, np.ndarray] = {}
        if execute:
            names = ["s1", "s2", "s3", "s4", "t1", "t2", "t3", "t4"] + [
                f"p{i}" for i in range(1, 8)
            ]
            bufs = {name: np.empty((h, h), dtype=np.float64) for name in names}
            a11, a12 = av[:h, :h], av[:h, h:]
            a21, a22 = av[h:, :h], av[h:, h:]
            b11, b12 = bv[:h, :h], bv[:h, h:]
            b21, b22 = bv[h:, :h], bv[h:, h:]

        # Pre additions: one work-shared loop computing all S/T rows.
        pre_cost = addition_cost(h, 8, self.machine, self.add_locality)
        pre_computes = None
        if execute:
            pre_computes = []
            for r0, r1 in _row_ranges(h, threads):

                def chunk(r0=r0, r1=r1):
                    np.add(a21[r0:r1], a22[r0:r1], out=bufs["s1"][r0:r1])
                    np.subtract(bufs["s1"][r0:r1], a11[r0:r1], out=bufs["s2"][r0:r1])
                    np.subtract(a11[r0:r1], a21[r0:r1], out=bufs["s3"][r0:r1])
                    np.subtract(a12[r0:r1], bufs["s2"][r0:r1], out=bufs["s4"][r0:r1])
                    np.subtract(b12[r0:r1], b11[r0:r1], out=bufs["t1"][r0:r1])
                    np.subtract(b22[r0:r1], bufs["t1"][r0:r1], out=bufs["t2"][r0:r1])
                    np.subtract(b22[r0:r1], b12[r0:r1], out=bufs["t3"][r0:r1])
                    np.subtract(bufs["t2"][r0:r1], b21[r0:r1], out=bufs["t4"][r0:r1])

                pre_computes.append(chunk)
            pre_computes += [None] * (threads - len(pre_computes))
        pre = omp.parallel_for(
            f"dfs-pre/{s}", pre_cost, deps, chunks=threads, chunk_computes=pre_computes
        )

        # Seven sub-problems in sequence, each fully work-shared inside.
        if execute:
            pairs = [
                (a11, b11, bufs["p1"]),
                (a12, b21, bufs["p2"]),
                (bufs["s4"], b22, bufs["p3"]),
                (a22, bufs["t4"], bufs["p4"]),
                (bufs["s1"], bufs["t1"], bufs["p5"]),
                (bufs["s2"], bufs["t2"], bufs["p6"]),
                (bufs["s3"], bufs["t3"], bufs["p7"]),
            ]
        else:
            pairs = [(None, None, None)] * 7
        prev: Task = pre
        for i, (pa, pb, pc) in enumerate(pairs, start=1):
            prev = self._recurse(
                omp, pa, pb, pc, h, depth + 1, (prev,), execute
            )

        # Post additions: one work-shared loop (row-wise U chain + C).
        post_cost = addition_cost(h, 7, self.machine, self.add_locality)
        post_computes = None
        if execute:
            post_computes = []
            for r0, r1 in _row_ranges(h, threads):

                def chunk(r0=r0, r1=r1):
                    u2 = bufs["p1"][r0:r1] + bufs["p6"][r0:r1]
                    u3 = u2 + bufs["p7"][r0:r1]
                    u4 = u2 + bufs["p5"][r0:r1]
                    np.add(bufs["p1"][r0:r1], bufs["p2"][r0:r1], out=cw[r0:r1, :h])
                    np.add(u4, bufs["p3"][r0:r1], out=cw[r0:r1, h:])
                    np.subtract(u3, bufs["p4"][r0:r1], out=cw[h + r0 : h + r1, :h])
                    np.add(u3, bufs["p5"][r0:r1], out=cw[h + r0 : h + r1, h:])

                post_computes.append(chunk)
            post_computes += [None] * (threads - len(post_computes))
        return omp.parallel_for(
            f"dfs-post/{s}", post_cost, [prev], chunks=threads, chunk_computes=post_computes
        )
