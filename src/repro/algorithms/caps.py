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

Algorithm 2 of the paper is the dispatch in
:meth:`CapsStrassen._arena_template`::

    if DEPTH < CUTOFF_DEPTH: execute Strassen BFS
    else:                    execute Strassen DFS
"""

from __future__ import annotations

from ..linalg.dense import working_set_bytes
from ..linalg.fastmm import recursion_depth
from ..machine.specs import MachineSpec
from ..runtime.arena import (
    EXT_DEP,
    NameInterner,
    SubtreeTemplate,
    TemplateBuilder,
)
from ..runtime.cost import ZERO_COST, TaskCost
from ..util.errors import ConfigurationError
from ..util.validation import next_power_of_two, require_fraction, require_positive
from ..observability import trace
from .base import BuildResult, MatmulAlgorithm, record_lowering
from .kernels import addition_cost, leaf_gemm_cost
from .program import (
    ADD,
    CAPS_U,
    COPY,
    GEMM,
    GRAIN_WINOGRAD,
    SUB,
    SUB_A,
    SUB_B,
    SUB_C,
    WINO_POST,
    WINO_PRE,
    NumericsProgram,
    ProgramBuilder,
    ProgramTemplate,
    full,
    quadrants,
    rows,
    winograd_factors,
)
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

    def _arena_template(
        self, s: int, depth: int, threads: int, program: dict | None = None
    ) -> SubtreeTemplate | ProgramTemplate:
        """Relocatable template of the subtree at *(s, depth)*: Algorithm
        2's dispatch, one BFS or DFS step per level.

        Memoized by ``(s, min(depth, cutoff_depth), threads)``: beyond
        the BFS/DFS switch the structure depends only on *s*, and the
        DFS work-sharing chunk count depends on *threads*.  Each task
        declares its numerics op; with a *program* memo the same calls
        build the numerics template instead (see
        :meth:`StrassenWinograd._arena_template
        <repro.algorithms.strassen.StrassenWinograd._arena_template>`).
        """
        key = (s, min(depth, self.cutoff_depth), threads)
        memo = self._tpl_memo if program is None else program
        tpl = memo.get(key)
        if tpl is not None:
            return tpl
        tb = TemplateBuilder(self._interner) if program is None else ProgramBuilder()
        A, B, C = full(SUB_A, s), full(SUB_B, s), full(SUB_C, s)
        if s <= self.leaf_cutoff:
            cost = leaf_gemm_cost(
                s, self.machine, self.leaf_efficiency, self.leaf_locality
            )
            tb.emit(f"leaf/{s}", cost, (EXT_DEP,), op=(GEMM, A, B, C))
        elif depth < self.cutoff_depth:
            self._tpl_bfs(tb, s, depth, threads, program, A, B, C)
        else:
            self._tpl_dfs(tb, s, depth, threads, program, A, B, C)
        tpl = tb.finish()
        memo[key] = tpl
        return tpl

    def _tpl_parallel_for(self, tb, name, total_cost, deps, k, ops=None) -> int:
        """Template twin of ``OpenMP.parallel_for`` (static schedule,
        *k* chunks with numerics *ops*, zero-cost join); returns the
        join's local id."""
        per_chunk = total_cost.scaled(1.0 / k)
        chunks = [
            tb.emit(f"{name}[{i}]", per_chunk, deps, op=ops[i] if ops else None)
            for i in range(k)
        ]
        return tb.emit(f"{name}/join", ZERO_COST, chunks)

    def _tpl_bfs(self, tb, s, depth, threads, program, A, B, C) -> None:
        """BFS step: the seven sub-problems are independent tasks with
        private buffers, behind fine-grained S/T/U addition chains."""
        h = s // 2
        one_add = addition_cost(h, 1, self.machine, self.add_locality)
        ext = (EXT_DEP,)
        a11, a12, a21, a22 = qa = quadrants(A)
        b11, b12, b21, b22 = qb = quadrants(B)
        st = tb.buffers(8, h, h)
        s1, s2, s3, s4, t1, t2, t3, t4 = st
        prods = tb.buffers(7, h, h)
        p1, p2, p3, p4, p5, p6, p7 = prods
        # Pre-addition chains: s1 -> s2 -> s4; s3; t1 -> t2 -> t4; t3.
        ts1 = tb.emit(f"bfs-s1/{s}", one_add, ext, op=(ADD, a21, a22, s1))
        ts2 = tb.emit(f"bfs-s2/{s}", one_add, (ts1,), op=(SUB, s1, a11, s2))
        ts3 = tb.emit(f"bfs-s3/{s}", one_add, ext, op=(SUB, a11, a21, s3))
        ts4 = tb.emit(f"bfs-s4/{s}", one_add, (ts2,), op=(SUB, a12, s2, s4))
        tt1 = tb.emit(f"bfs-t1/{s}", one_add, ext, op=(SUB, b12, b11, t1))
        tt2 = tb.emit(f"bfs-t2/{s}", one_add, (tt1,), op=(SUB, b22, t1, t2))
        tt3 = tb.emit(f"bfs-t3/{s}", one_add, ext, op=(SUB, b22, b12, t3))
        tt4 = tb.emit(f"bfs-t4/{s}", one_add, (tt2,), op=(SUB, t2, b21, t4))
        dep_lists = [[EXT_DEP], [EXT_DEP], [ts4], [tt4]]
        dep_lists += [[ts1, tt1], [ts2, tt2], [ts3, tt3]]
        factors = winograd_factors(qa, qb, st)
        if self.pack:
            # Copy raw operand quadrants into private contiguous buffers
            # before the affected children run (communication avoidance:
            # pay local copies, save channel traffic).  p1/p2 pack both
            # factors, p3 its B factor (b22), p4 its A factor (a22);
            # p5-p7 consume S/T buffers that are already contiguous.
            for idx, n_blocks in self._PACK_BLOCKS.items():
                x, y = factors[idx]
                copies = []
                if idx in (0, 1, 3):
                    (px,) = tb.buffers(1, h, h)
                    copies += [x, px]
                    x = px
                if idx in (0, 1, 2):
                    (py,) = tb.buffers(1, h, h)
                    copies += [y, py]
                    y = py
                factors[idx] = (x, y)
                pack_task = tb.emit(
                    f"bfs-pack{idx + 1}/{s}",
                    self._pack_cost(h, n_blocks),
                    dep_lists[idx],
                    op=(COPY, *copies),
                )
                dep_lists[idx] = [pack_task]
        child = self._arena_template(h, depth + 1, threads, program)
        kids = [
            tb.splice(child, ext=tuple(d), views=(x, y, p))
            for d, (x, y), p in zip(dep_lists, factors, prods)
        ]
        # Post additions: U chain then the four output blocks.
        u2, u3, u4 = tb.buffers(3, h, h)
        tu = tb.emit(
            f"bfs-u/{s}",
            addition_cost(h, 3, self.machine, self.add_locality),
            (kids[0], kids[4], kids[5], kids[6]),
            op=(CAPS_U, p1, p5, p6, p7, u2, u3, u4),
        )
        # With packing, results land in private buffers first and the
        # unpack task redistributes them to C's layout.
        qc = quadrants(C)
        d11, d12, d21, d22 = tb.buffers(4, h, h) if self.pack else qc
        c_tasks = [
            tb.emit(f"bfs-c11/{s}", one_add, (kids[0], kids[1]), op=(ADD, p1, p2, d11)),
            tb.emit(f"bfs-c12/{s}", one_add, (tu, kids[2]), op=(ADD, u4, p3, d12)),
            tb.emit(f"bfs-c21/{s}", one_add, (tu, kids[3]), op=(SUB, u3, p4, d21)),
            tb.emit(f"bfs-c22/{s}", one_add, (tu, kids[4]), op=(ADD, u3, p5, d22)),
        ]
        if self.pack:
            unpack = (COPY, d11, qc[0], d12, qc[1], d21, qc[2], d22, qc[3])
            tb.emit(f"bfs-unpack/{s}", self._pack_cost(h, 4), c_tasks, op=unpack)
        else:
            tb.emit(f"bfs-join/{s}", ZERO_COST, c_tasks)

    def _tpl_dfs(self, tb, s, depth, threads, program, A, B, C) -> None:
        """DFS step: all workers cooperate on each sub-problem in turn;
        the additions are work-shared row chunks."""
        h = s // 2
        if s <= self.dfs_grain:
            # Work-shared stage over the whole remaining sub-tree.
            ops = [(GRAIN_WINOGRAD, A, B, C)] + [None] * (threads - 1)
            self._tpl_parallel_for(
                tb, f"dfs-grain/{s}", self.subtree_cost(s), (EXT_DEP,), threads, ops
            )
            return
        qa, qb, qc = quadrants(A), quadrants(B), quadrants(C)
        st = tb.buffers(8, h, h)
        prods = tb.buffers(7, h, h)
        ranges = _row_ranges(h, threads)
        idle = [None] * (threads - len(ranges))
        pre_views = (*qa, *qb, *st)
        pre_ops = [
            (WINO_PRE, *(rows(v, r0, r1) for v in pre_views)) for r0, r1 in ranges
        ]
        prev = self._tpl_parallel_for(
            tb,
            f"dfs-pre/{s}",
            addition_cost(h, 8, self.machine, self.add_locality),
            (EXT_DEP,),
            threads,
            pre_ops + idle,
        )
        # Seven sub-problems in sequence, each fully work-shared inside.
        child = self._arena_template(h, depth + 1, threads, program)
        for (x, y), p in zip(winograd_factors(qa, qb, st), prods):
            prev = tb.splice(child, ext=(prev,), views=(x, y, p))
        post_views = (*prods, *qc)
        post_ops = [
            (WINO_POST, *(rows(v, r0, r1) for v in post_views)) for r0, r1 in ranges
        ]
        self._tpl_parallel_for(
            tb,
            f"dfs-post/{s}",
            addition_cost(h, 7, self.machine, self.add_locality),
            (prev,),
            threads,
            post_ops + idle,
        )

    def numerics_program(self, n: int, threads: int) -> NumericsProgram:
        """The numerics of :meth:`build_arena`'s lowering, stamped from
        the same template recursion (so task ids match)."""
        m = self.padded_n(n)
        tpl = self._arena_template(m, 0, threads, {})
        return tpl.to_program(n, m, self.leaf_cutoff, "winograd")

    def build_arena(self, n: int, threads: int) -> BuildResult:
        """Cost-only lowering straight to a :class:`TaskArena` via
        template stamping."""
        require_positive(threads, "threads")
        require_positive(n, "n")
        self.check_memory(n)
        with trace.span("lower_arena", alg=self.name, n=n, threads=threads):
            m = self.padded_n(n)
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
