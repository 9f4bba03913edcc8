"""Task-parallel Strassen-Winograd — the paper's BOTS fixture (§IV-B).

Structure mirrors the Barcelona OpenMP Tasks Suite implementation the
paper modifies:

* recursion spawns one *untied task per multiply sub-problem*, seven per
  node ("for each of the seven sub-problems, a separate task is spawned");
* the additions of a node run *inside* the spawning task — modelled as
  one sequential ``pre`` task (operand combinations) and one ``post``
  task (output accumulation) per node.  This per-node serialization of
  the bandwidth-bound additions is precisely what limits BOTS Strassen's
  scaling;
* recursion reverts to a dense leaf solver at ``n <= 64`` ("we utilize
  this cutover value across all problem sizes and thread counts"), whose
  manually-unrolled kernel is distinctly less efficient than a packed
  BLAS microkernel;
* sub-trees at or below ``grain`` become single sequential tasks — the
  task-granularity floor every tasking runtime applies.

The default schedule is the Winograd variant (7 multiplies, 15 adds);
``classic=True`` lowers the paper's Eq. 7 classic Strassen (18 adds)
instead, used by the ablation benchmarks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..linalg.dense import pad_to_power_of_two, working_set_bytes
from ..linalg.fastmm import (
    classic_strassen_product,
    recursion_depth,
    winograd_product,
    winograd_product_peeled,
)
from ..machine.specs import MachineSpec
from ..runtime.arena import (
    EXT_CREATOR,
    EXT_DEP,
    NO_CREATOR,
    NameInterner,
    SubtreeTemplate,
    TemplateBuilder,
)
from ..runtime.cost import TaskCost
from ..runtime.openmp import OpenMP
from ..runtime.task import Task
from ..util.errors import ConfigurationError
from ..util.validation import (
    next_power_of_two,
    require_fraction,
    require_positive,
)
from ..observability import trace
from .base import BuildResult, MatmulAlgorithm, record_lowering
from .kernels import addition_cost, leaf_gemm_cost

__all__ = ["StrassenWinograd"]

_WORD = 8


class StrassenWinograd(MatmulAlgorithm):
    """BOTS-style recursive Strassen-Winograd multiplication.

    Parameters
    ----------
    machine:
        Target platform.
    cutoff:
        Leaf dimension at which recursion reverts to the dense solver
        (the paper's empirically tuned 64).
    grain:
        Sub-trees of this dimension or below become one sequential task.
    leaf_efficiency:
        Fraction of core peak the unrolled dense leaf solver sustains.
    add_locality / leaf_locality:
        Probability that addition/multiply operands are still LLC
        resident (see :func:`repro.algorithms.traffic.streaming_traffic`).
    classic:
        Lower classic Strassen (Eq. 7, 18 adds) instead of Winograd.
    odd_strategy:
        How non-power-of-two sizes are handled: ``"pad"`` (zero-pad to
        the next power of two — the default, and a no-op for the
        paper's sizes) or ``"peel"`` (dynamic peeling: odd levels strip
        the last row/column and restore them with GEMV/rank-1 border
        tasks, avoiding padding's memory blow-up).
    """

    name = "strassen"
    display_name = "Strassen"

    def __init__(
        self,
        machine: MachineSpec,
        cutoff: int = 64,
        grain: int = 128,
        leaf_efficiency: float = 0.38,
        add_locality: float = 0.93,
        leaf_locality: float = 0.44,
        classic: bool = False,
        odd_strategy: str = "pad",
    ):
        super().__init__(machine)
        require_positive(cutoff, "cutoff")
        require_positive(grain, "grain")
        require_fraction(leaf_efficiency, "leaf_efficiency")
        if odd_strategy not in ("pad", "peel"):
            raise ConfigurationError(
                f"odd_strategy must be 'pad' or 'peel', got {odd_strategy!r}"
            )
        if odd_strategy == "peel" and classic:
            raise ConfigurationError(
                "dynamic peeling is implemented for the Winograd variant only"
            )
        self.cutoff = cutoff
        self.grain = max(grain, cutoff)
        self.leaf_efficiency = leaf_efficiency
        self.add_locality = add_locality
        self.leaf_locality = leaf_locality
        self.classic = classic
        self.odd_strategy = odd_strategy
        self._cost_memo: dict[int, TaskCost] = {}
        self._interner = NameInterner()
        self._tpl_memo: dict[int, SubtreeTemplate] = {}

    def __getstate__(self) -> dict:
        """Templates are a per-process cache (megabytes of arrays at
        n=4096) — study workers rebuild them locally instead of paying
        pickle freight."""
        state = dict(self.__dict__)
        state.pop("_tpl_memo", None)
        state.pop("_interner", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._interner = NameInterner()
        self._tpl_memo = {}

    # ---- structural properties ----------------------------------------

    @property
    def pre_adds(self) -> int:
        """Additions before the 7 multiplies (8 Winograd / 10 classic)."""
        return 10 if self.classic else 8

    @property
    def post_adds(self) -> int:
        """Additions after the 7 multiplies (7 Winograd / 8 classic)."""
        return 8 if self.classic else 7

    @property
    def variant(self) -> str:
        return "strassen" if self.classic else "winograd"

    def padded_n(self, n: int) -> int:
        """Dimension the lowering actually operates on: the next power
        of two under the "pad" strategy (a no-op for the paper's
        sizes), or *n* itself under "peel"."""
        require_positive(n, "n")
        if self.odd_strategy == "peel":
            return n
        return n if n <= self.cutoff else next_power_of_two(n)

    def flop_count(self, n: int) -> float:
        """Recursive flop count: ``7 f(s/2) + n_adds (s/2)^2`` per level,
        classical ``2 s^3`` at the leaves."""
        return self._flops(self.padded_n(n))

    def _flops(self, s: int) -> float:
        if s <= self.cutoff:
            return 2.0 * float(s) ** 3
        if s % 2 == 1:  # peel strategy: border updates + even core
            m = float(s - 1)
            return self._flops(s - 1) + 6.0 * m**2
        h = s // 2
        return 7.0 * self._flops(h) + (self.pre_adds + self.post_adds) * float(h) ** 2

    def memory_footprint_bytes(self, n: int) -> float:
        """Operands plus live temporaries.

        Each node keeps ``pre_adds + 7`` half-size buffers alive; with
        the scheduler bounding live sub-trees, roughly three levels of
        temporaries coexist — enough that 8192^2 exceeds the paper's
        4 GB platform while 4096^2 fits (§VI-A).
        """
        m = self.padded_n(n)
        if self.odd_strategy == "peel":
            # Peeling never pads: count the halvings of the even cores
            # (odd levels just shed a row/column).
            depth, size = 0, m
            while size > self.cutoff:
                if size % 2:
                    size -= 1
                else:
                    size //= 2
                    depth += 1
        else:
            depth = recursion_depth(m, self.cutoff)
        buffers = self.pre_adds + 7
        live_levels = min(depth, 3)
        return working_set_bytes(m) + buffers * (m / 2) ** 2 * _WORD * live_levels

    # ---- cost aggregation ----------------------------------------------

    def subtree_cost(self, s: int) -> TaskCost:
        """Aggregate cost of a fully sequential sub-tree at dimension *s*
        (used for grain tasks and cost cross-checks)."""
        if s in self._cost_memo:
            return self._cost_memo[s]
        if s <= self.cutoff:
            cost = leaf_gemm_cost(
                s, self.machine, self.leaf_efficiency, self.leaf_locality
            )
        elif s % 2 == 1:  # peel strategy
            cost = self.subtree_cost(s - 1) + self._peel_cost(s - 1)
        else:
            h = s // 2
            pre = addition_cost(h, self.pre_adds, self.machine, self.add_locality)
            post = addition_cost(h, self.post_adds, self.machine, self.add_locality)
            child = self.subtree_cost(h)
            cost = pre + post + child.scaled(7.0)
        self._cost_memo[s] = cost
        return cost

    def _peel_cost(self, m: int) -> TaskCost:
        """Border restoration around an ``m x m`` even core: one rank-1
        update plus row/column GEMVs (~6 m^2 flops, streaming traffic
        over the core and the borders)."""
        from .traffic import streaming_traffic

        stream = streaming_traffic(5.0 * m * m * _WORD, self.machine, self.add_locality)
        return TaskCost(
            flops=6.0 * float(m) ** 2,
            efficiency=0.5,
            bytes_l1=stream.l1,
            bytes_l2=stream.l2,
            bytes_l3=stream.l3,
            bytes_dram=stream.dram,
        )

    # ---- lowering --------------------------------------------------------

    def build(
        self, n: int, threads: int, seed: int = 0, execute: bool = True
    ) -> BuildResult:
        """Lower to a BOTS-style task graph (pre -> 7 children -> post)."""
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

        omp = OpenMP(f"{self.name}[n={n}]", threads)
        self._recurse(omp, ap, bp, cp, m, deps=(), execute=execute)

        return BuildResult(
            graph=omp.graph,
            n=n,
            a=a,
            b=b,
            c=c,
            variant=self.variant,
            cutoff=self.cutoff,
        )

    # ---- templated lowering (arena path) --------------------------------

    def _arena_template(self, s: int) -> SubtreeTemplate:
        """Relocatable template of the subtree at dimension *s*.

        Built once per recursion level and memoized: the template at
        *s* stamps seven copies of the template at ``s/2`` (array
        copies) plus the pre/post rows, so a full lowering costs
        ``O(depth)`` template builds instead of ``O(7^depth)`` Python
        ``Task`` constructions.  Emission order mirrors
        :meth:`_recurse` exactly, which makes the stamped arena
        bit-identical to ``TaskArena.from_graph(build(execute=False))``.
        """
        tpl = self._tpl_memo.get(s)
        if tpl is not None:
            return tpl
        tb = TemplateBuilder(self._interner)
        if s <= self.cutoff:
            cost = leaf_gemm_cost(
                s, self.machine, self.leaf_efficiency, self.leaf_locality
            )
            tb.emit(f"leaf/{s}", cost, (EXT_DEP,), created_by=EXT_CREATOR)
        elif s % 2 == 1 and s > self.grain:
            # Dynamic peeling: even core first, then the border task.
            core = tb.splice(
                self._arena_template(s - 1),
                ext=(EXT_DEP,),
                ext_creator=EXT_CREATOR,
            )
            tb.emit(
                f"peel/{s}", self._peel_cost(s - 1), (core,),
                created_by=EXT_CREATOR,
            )
        elif s <= self.grain:
            tb.emit(
                f"grain/{s}", self.subtree_cost(s), (EXT_DEP,),
                created_by=EXT_CREATOR,
            )
        else:
            h = s // 2
            child = self._arena_template(h)
            pre = tb.emit(
                f"pre/{s}",
                addition_cost(h, self.pre_adds, self.machine, self.add_locality),
                (EXT_DEP,),
                created_by=EXT_CREATOR,
            )
            kids = [tb.splice(child, ext=(pre,), ext_creator=pre) for _ in range(7)]
            tb.emit(
                f"post/{s}",
                addition_cost(h, self.post_adds, self.machine, self.add_locality),
                kids,
                created_by=EXT_CREATOR,
            )
        tpl = tb.finish()
        self._tpl_memo[s] = tpl
        return tpl

    def build_arena(self, n: int, threads: int, seed: int = 0) -> BuildResult:
        """Cost-only lowering straight to a :class:`TaskArena` via
        template stamping (no ``Task`` objects, no closures)."""
        require_positive(threads, "threads")
        require_positive(n, "n")
        self.check_memory(n)
        with trace.span("lower_arena", alg=self.name, n=n, threads=threads):
            m = self.padded_n(n)
            tb = TemplateBuilder(self._interner)
            tb.splice(self._arena_template(m), ext=(), ext_creator=NO_CREATOR)
            return record_lowering(
                BuildResult(
                    graph=tb.to_arena(f"{self.name}[n={n}]"),
                    n=n,
                    a=None,
                    b=None,
                    c=None,
                    variant=self.variant,
                    cutoff=self.cutoff,
                )
            )

    def _recurse(
        self,
        omp: OpenMP,
        av: np.ndarray | None,
        bv: np.ndarray | None,
        cw: np.ndarray | None,
        s: int,
        deps: tuple,
        execute: bool,
        created_by: Task | None = None,
    ) -> Task:
        """Emit the sub-graph for ``cw = av @ bv`` at dimension *s*;
        returns the terminal task."""
        if s <= self.cutoff:
            cost = leaf_gemm_cost(
                s, self.machine, self.leaf_efficiency, self.leaf_locality
            )
            compute = None
            if execute:

                def compute(av=av, bv=bv, cw=cw):
                    cw[:, :] = av @ bv

            return omp.task(f"leaf/{s}", cost, deps, compute, created_by=created_by)

        if s % 2 == 1 and s > self.grain:
            # Dynamic peeling: recurse on the even core, then restore
            # the borders with a GEMV/rank-1 task.
            return self._expand_peel(omp, av, bv, cw, s, deps, execute, created_by)

        if s <= self.grain:
            cost = self.subtree_cost(s)
            compute = None
            if execute:
                if self.odd_strategy == "peel":
                    product = lambda x, y, cutoff: winograd_product_peeled(x, y, cutoff)
                elif self.classic:
                    product = classic_strassen_product
                else:
                    product = winograd_product

                def compute(av=av, bv=bv, cw=cw, product=product):
                    cw[:, :] = product(av, bv, self.cutoff)

            return omp.task(f"grain/{s}", cost, deps, compute, created_by=created_by)

        if self.classic:
            return self._expand_classic(omp, av, bv, cw, s, deps, execute, created_by)
        return self._expand_winograd(omp, av, bv, cw, s, deps, execute, created_by)

    def _expand_peel(self, omp, av, bv, cw, s, deps, execute, created_by) -> Task:
        m = s - 1
        core = None
        if execute:
            core = np.empty((m, m), dtype=np.float64)
        core_term = self._recurse(
            omp,
            av[:m, :m] if execute else None,
            bv[:m, :m] if execute else None,
            core,
            m,
            deps,
            execute,
            created_by,
        )
        peel_compute = None
        if execute:

            def peel_compute(av=av, bv=bv, cw=cw, core=core, m=m):
                cw[:m, :m] = core + np.outer(av[:m, m], bv[m, :m])
                cw[:m, m] = av[:m, :m] @ bv[:m, m] + av[:m, m] * bv[m, m]
                cw[m, :m] = av[m, :m] @ bv[:m, :m] + av[m, m] * bv[m, :m]
                cw[m, m] = av[m, :m] @ bv[:m, m] + av[m, m] * bv[m, m]

        return omp.task(
            f"peel/{s}", self._peel_cost(m), [core_term], peel_compute,
            created_by=created_by,
        )

    # ---- node expansions -------------------------------------------------

    def _expand_winograd(self, omp, av, bv, cw, s, deps, execute, created_by=None) -> Task:
        h = s // 2
        bufs = {}
        if execute:
            names = ["s1", "s2", "s3", "s4", "t1", "t2", "t3", "t4"] + [
                f"p{i}" for i in range(1, 8)
            ]
            bufs = {name: np.empty((h, h), dtype=np.float64) for name in names}

        pre_cost = addition_cost(h, self.pre_adds, self.machine, self.add_locality)
        pre_compute = None
        if execute:
            a11, a12 = av[:h, :h], av[:h, h:]
            a21, a22 = av[h:, :h], av[h:, h:]
            b11, b12 = bv[:h, :h], bv[:h, h:]
            b21, b22 = bv[h:, :h], bv[h:, h:]

            def pre_compute(bufs=bufs):
                np.add(a21, a22, out=bufs["s1"])
                np.subtract(bufs["s1"], a11, out=bufs["s2"])
                np.subtract(a11, a21, out=bufs["s3"])
                np.subtract(a12, bufs["s2"], out=bufs["s4"])
                np.subtract(b12, b11, out=bufs["t1"])
                np.subtract(b22, bufs["t1"], out=bufs["t2"])
                np.subtract(b22, b12, out=bufs["t3"])
                np.subtract(bufs["t2"], b21, out=bufs["t4"])

        pre = omp.task(f"pre/{s}", pre_cost, deps, pre_compute, created_by=created_by)

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
        children = [
            self._recurse(omp, pa, pb, pc, h, (pre,), execute, created_by=pre)
            for pa, pb, pc in pairs
        ]

        post_cost = addition_cost(h, self.post_adds, self.machine, self.add_locality)
        post_compute = None
        if execute:

            def post_compute(bufs=bufs, cw=cw, h=h):
                u2 = bufs["p1"] + bufs["p6"]
                u3 = u2 + bufs["p7"]
                u4 = u2 + bufs["p5"]
                np.add(bufs["p1"], bufs["p2"], out=cw[:h, :h])
                np.add(u4, bufs["p3"], out=cw[:h, h:])
                np.subtract(u3, bufs["p4"], out=cw[h:, :h])
                np.add(u3, bufs["p5"], out=cw[h:, h:])

        return omp.task(f"post/{s}", post_cost, children, post_compute, created_by=created_by)

    def _expand_classic(self, omp, av, bv, cw, s, deps, execute, created_by=None) -> Task:
        h = s // 2
        bufs = {}
        if execute:
            names = [f"l{i}" for i in range(1, 8)] + [f"r{i}" for i in range(1, 8)]
            names += [f"q{i}" for i in range(1, 8)]
            bufs = {name: np.empty((h, h), dtype=np.float64) for name in names}

        pre_cost = addition_cost(h, self.pre_adds, self.machine, self.add_locality)
        pre_compute = None
        if execute:
            a11, a12 = av[:h, :h], av[:h, h:]
            a21, a22 = av[h:, :h], av[h:, h:]
            b11, b12 = bv[:h, :h], bv[:h, h:]
            b21, b22 = bv[h:, :h], bv[h:, h:]

            def pre_compute(bufs=bufs):
                # Left factors (paper Eq. 7, corrected).
                np.add(a11, a22, out=bufs["l1"])
                np.add(a21, a22, out=bufs["l2"])
                bufs["l3"][:, :] = a11
                bufs["l4"][:, :] = a22
                np.add(a11, a12, out=bufs["l5"])
                np.subtract(a21, a11, out=bufs["l6"])
                np.subtract(a12, a22, out=bufs["l7"])
                # Right factors.
                np.add(b11, b22, out=bufs["r1"])
                bufs["r2"][:, :] = b11
                np.subtract(b12, b22, out=bufs["r3"])
                np.subtract(b21, b11, out=bufs["r4"])
                bufs["r5"][:, :] = b22
                np.add(b11, b12, out=bufs["r6"])
                np.add(b21, b22, out=bufs["r7"])

        pre = omp.task(f"pre/{s}", pre_cost, deps, pre_compute, created_by=created_by)

        if execute:
            pairs = [(bufs[f"l{i}"], bufs[f"r{i}"], bufs[f"q{i}"]) for i in range(1, 8)]
        else:
            pairs = [(None, None, None)] * 7
        children = [
            self._recurse(omp, pa, pb, pc, h, (pre,), execute, created_by=pre)
            for pa, pb, pc in pairs
        ]

        post_cost = addition_cost(h, self.post_adds, self.machine, self.add_locality)
        post_compute = None
        if execute:

            def post_compute(bufs=bufs, cw=cw, h=h):
                q = {i: bufs[f"q{i}"] for i in range(1, 8)}
                cw[:h, :h] = q[1] + q[4] - q[5] + q[7]
                cw[:h, h:] = q[3] + q[5]
                cw[h:, :h] = q[2] + q[4]
                cw[h:, h:] = q[1] - q[2] + q[3] + q[6]

        return omp.task(f"post/{s}", post_cost, children, post_compute, created_by=created_by)
