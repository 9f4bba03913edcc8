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

from ..linalg.dense import working_set_bytes
from ..linalg.fastmm import recursion_depth
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
from ..util.errors import ConfigurationError
from ..util.validation import (
    next_power_of_two,
    require_fraction,
    require_positive,
)
from ..observability import trace
from .base import BuildResult, MatmulAlgorithm, record_lowering
from .kernels import addition_cost, leaf_gemm_cost
from .program import (
    CLASSIC_POST,
    CLASSIC_PRE,
    GEMM,
    GRAIN_CLASSIC,
    GRAIN_PEELED,
    GRAIN_WINOGRAD,
    PEEL,
    SUB_A,
    SUB_B,
    SUB_C,
    WINO_POST,
    WINO_PRE,
    NumericsProgram,
    ProgramBuilder,
    ProgramTemplate,
    block,
    full,
    quadrants,
    winograd_factors,
)

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

    def _arena_template(
        self, s: int, program: dict | None = None
    ) -> SubtreeTemplate | ProgramTemplate:
        """Relocatable template of the subtree at dimension *s*.

        Built once per recursion level and memoized: the template at
        *s* stamps seven copies of the template at ``s/2`` (array
        copies) plus the pre/post rows, so a full lowering costs
        ``O(depth)`` template builds instead of ``O(7^depth)`` Python
        ``Task`` constructions.

        This recursion is the one definition of the algorithm's tasks.
        Each task also declares its numerics op over the subtree's
        A/B/C views and its temporaries; with a *program* memo (a fresh
        dict per numerics program) the same calls build the
        :class:`~repro.algorithms.program.ProgramTemplate` instead, kept
        out of the instance's cost memo.
        """
        memo = self._tpl_memo if program is None else program
        tpl = memo.get(s)
        if tpl is not None:
            return tpl
        tb = TemplateBuilder(self._interner) if program is None else ProgramBuilder()
        A, B, C = full(SUB_A, s), full(SUB_B, s), full(SUB_C, s)
        if s <= self.cutoff:
            cost = leaf_gemm_cost(
                s, self.machine, self.leaf_efficiency, self.leaf_locality
            )
            tb.emit(
                f"leaf/{s}", cost, (EXT_DEP,), created_by=EXT_CREATOR,
                op=(GEMM, A, B, C),
            )
        elif s % 2 == 1 and s > self.grain:
            # Dynamic peeling: even core first, then the border task.
            m = s - 1
            (core,) = tb.buffers(1, m, m)
            last = tb.splice(
                self._arena_template(m, program),
                ext=(EXT_DEP,),
                ext_creator=EXT_CREATOR,
                views=(block(A, 0, 0, m, m), block(B, 0, 0, m, m), core),
            )
            tb.emit(
                f"peel/{s}", self._peel_cost(m), (last,),
                created_by=EXT_CREATOR, op=(PEEL, A, B, C, core),
            )
        elif s <= self.grain:
            kind = GRAIN_CLASSIC if self.classic else GRAIN_WINOGRAD
            if self.odd_strategy == "peel":
                kind = GRAIN_PEELED
            tb.emit(
                f"grain/{s}", self.subtree_cost(s), (EXT_DEP,),
                created_by=EXT_CREATOR, op=(kind, A, B, C),
            )
        else:
            h = s // 2
            child = self._arena_template(h, program)
            qa, qb = quadrants(A), quadrants(B)
            if self.classic:
                left, right, prods = (tb.buffers(7, h, h) for _ in range(3))
                pre_op = (CLASSIC_PRE, *qa, *qb, *left, *right)
                factors = list(zip(left, right))
                post_kind = CLASSIC_POST
            else:
                st = tb.buffers(8, h, h)
                prods = tb.buffers(7, h, h)
                pre_op = (WINO_PRE, *qa, *qb, *st)
                factors = winograd_factors(qa, qb, st)
                post_kind = WINO_POST
            pre = tb.emit(
                f"pre/{s}",
                addition_cost(h, self.pre_adds, self.machine, self.add_locality),
                (EXT_DEP,),
                created_by=EXT_CREATOR,
                op=pre_op,
            )
            kids = [
                tb.splice(child, ext=(pre,), ext_creator=pre, views=(x, y, p))
                for (x, y), p in zip(factors, prods)
            ]
            tb.emit(
                f"post/{s}",
                addition_cost(h, self.post_adds, self.machine, self.add_locality),
                kids,
                created_by=EXT_CREATOR,
                op=(post_kind, *prods, *quadrants(C)),
            )
        tpl = tb.finish()
        memo[s] = tpl
        return tpl

    def numerics_program(self, n: int, threads: int) -> NumericsProgram:
        """The numerics of :meth:`build_arena`'s lowering, stamped from
        the same template recursion (so task ids match)."""
        m = self.padded_n(n)
        return self._arena_template(m, {}).to_program(n, m, self.cutoff, self.variant)

    def build_arena(self, n: int, threads: int) -> BuildResult:
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
