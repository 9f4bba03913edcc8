"""Tuned blocked DGEMM — the paper's OpenBLAS fixture (§IV-A).

The lowering mirrors Algorithm 1 of the paper: the output is tiled, each
tile task accumulates over the full reduction dimension with a packed
Goto-style microkernel running at ~92 % of core peak.  Blocking factors
come from the cache hierarchy (``tuning.select_blocking``), and the
algorithm-level DRAM traffic follows the classical blocked-matmul I/O
volume:

* LLC-resident problems (3 n^2 doubles <= L3, true for n = 512 on the
  paper's platform) touch DRAM only for the initial cold load — which is
  why the paper finds 512 "the only problem size whose power scaling was
  consistently near linear";
* larger problems stream ``8 * 2 n^3 / b3`` bytes through the memory
  channel, contending for the single DIMM.

The task graph is embarrassingly parallel (no inter-tile dependencies),
matching blocked DGEMM's "near linear scaling on shared memory
platforms" (§IV-D).
"""

from __future__ import annotations

from ..linalg.dense import matmul_flops, working_set_bytes
from ..machine.specs import MachineSpec
from ..runtime.arena import NameInterner, TemplateBuilder
from ..util.validation import require_fraction, require_positive
from ..observability import trace
from .base import BuildResult, MatmulAlgorithm, record_lowering
from .kernels import blocked_tile_cost
from .program import (
    GEMM,
    SUB_A,
    SUB_B,
    SUB_C,
    NumericsProgram,
    ProgramBuilder,
    block,
    full,
)
from .tuning import select_blocking, tile_grid

__all__ = ["BlockedGemm"]

_WORD = 8


class BlockedGemm(MatmulAlgorithm):
    """Cache-blocked DGEMM with hierarchy-derived blocking factors.

    Parameters
    ----------
    machine:
        Target platform.
    efficiency:
        Microkernel efficiency (fraction of core peak); tuned OpenBLAS
        kernels on Haswell sustain ~0.92.
    min_tiles_per_thread:
        Over-decomposition factor for the (i, j) tile grid.
    """

    name = "openblas"
    display_name = "OpenBLAS"

    def __init__(
        self,
        machine: MachineSpec,
        efficiency: float = 0.92,
        min_tiles_per_thread: int = 4,
    ):
        super().__init__(machine)
        require_fraction(efficiency, "efficiency")
        require_positive(min_tiles_per_thread, "min_tiles_per_thread")
        self.efficiency = efficiency
        self.min_tiles_per_thread = min_tiles_per_thread
        self.blocking = select_blocking(machine)

    def flop_count(self, n: int) -> float:
        """Classical ``2 n^3``."""
        return matmul_flops(n)

    def dram_traffic_bytes(self, n: int) -> float:
        """Whole-run memory-channel volume of the blocked algorithm."""
        ws = working_set_bytes(n)
        if ws <= self.machine.caches.last_level_capacity:
            return ws  # cold load only; all reuse hits the LLC
        return matmul_flops(n) * _WORD / self.blocking.b3 + ws

    def _emit_tiles(self, tb, n: int, threads: int) -> None:
        """Emit the independent grid of tile tasks, each with its
        numerics op ``C[tile] = A[rows] @ B[:, cols]``."""
        rows = tile_grid(n, threads, self.min_tiles_per_thread)
        cols = tile_grid(n, threads, self.min_tiles_per_thread)
        total_flops = self.flop_count(n)
        total_dram = self.dram_traffic_bytes(n)
        A, B, C = full(SUB_A, n), full(SUB_B, n), full(SUB_C, n)
        for ro, rs in rows:
            for co, cs in cols:
                tile_flops = 2.0 * rs * cs * n
                dram_share = total_dram * (tile_flops / total_flops)
                cost = blocked_tile_cost(
                    rs, cs, n, self.machine, self.efficiency, dram_share
                )
                op = (
                    GEMM,
                    block(A, ro, 0, rs, n),
                    block(B, 0, co, n, cs),
                    block(C, ro, co, rs, cs),
                )
                tb.emit(f"tile/({ro},{co})", cost, op=op)

    def build_arena(self, n: int, threads: int) -> BuildResult:
        """Lower an n x n multiply to an independent grid of tile tasks.

        The tile grid is flat (no recursion to template), so this is a
        plain columnar emission."""
        require_positive(threads, "threads")
        require_positive(n, "n")
        self.check_memory(n)
        with trace.span("lower_arena", alg=self.name, n=n, threads=threads):
            tb = TemplateBuilder(NameInterner())
            self._emit_tiles(tb, n, threads)
            return record_lowering(
                BuildResult(
                    graph=tb.to_arena(f"openblas[n={n}]"),
                    n=n,
                    a=None,
                    b=None,
                    c=None,
                    variant="classical",
                    cutoff=n,
                )
            )

    def numerics_program(self, n: int, threads: int) -> NumericsProgram:
        """The tile products, stamped by the same emission as
        :meth:`build_arena` (so task ids match)."""
        tb = ProgramBuilder()
        self._emit_tiles(tb, n, threads)
        return tb.finish().to_program(n, n, n, "classical")
