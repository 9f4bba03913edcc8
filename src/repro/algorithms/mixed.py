"""Mixed sequential-parallel workload: right-looking block LU.

The paper's model explicitly covers "complex algorithms that contain
both sequential and parallel components" (Eq. 2) and "mixed
parallel-sequential algorithms" (abstract), but its evaluation only
exercises pure-parallel matmuls.  This module supplies the missing
workload class: a right-looking block LU factorization (no pivoting —
operands are made diagonally dominant), whose natural structure is

* a **sequential** diagonal-panel factorization per step (the classic
  Amdahl fraction),
* **parallel** triangular solves for the row/column panels,
* a **parallel** trailing-matrix update — a rank-``nb`` matmul executed
  with blocked-DGEMM tiles.

:meth:`BlockLU.build` lowers the whole factorization to one task graph
(for scheduling studies); :meth:`BlockLU.phase_measurements` measures
the sequential and parallel portions separately so Eq. 2/4 can be
applied exactly as written; :func:`mixed_ep` is that application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.ep import EPConvention, ep_total
from ..linalg.dense import random_matrix
from ..machine.specs import MachineSpec
from ..runtime.arena import TaskArena
from ..runtime.cost import TaskCost
from ..runtime.openmp import OpenMP
from ..sim.engine import Engine
from ..sim.measurement import RunMeasurement
from ..util.errors import ValidationError
from ..util.validation import require_fraction, require_positive
from .kernels import blocked_tile_cost
from .traffic import streaming_traffic
from .tuning import tile_grid

__all__ = ["BlockLU", "LUBuildResult", "MixedEPReport", "mixed_ep"]

_WORD = 8


@dataclass
class LUBuildResult:
    """A lowered LU factorization: its arena and, per task, the
    ``compute`` closure a numerics run calls (``None`` cost-only)."""

    graph: TaskArena
    computes: list[Callable[[], None] | None]
    n: int
    original: np.ndarray | None  # A before factorization
    lu: np.ndarray | None  # packed L\U after execution

    @property
    def cost_only(self) -> bool:
        return self.lu is None

    def verify(self, rtol: float = 1e-8) -> float:
        """Max relative error of ``L @ U`` vs the original matrix."""
        if self.cost_only:
            raise ValidationError("cannot verify a cost-only build")
        n = self.n
        lower = np.tril(self.lu, -1) + np.eye(n)
        upper = np.triu(self.lu)
        reconstructed = lower @ upper
        scale = float(np.max(np.abs(self.original))) or 1.0
        err = float(np.max(np.abs(reconstructed - self.original)) / scale)
        if err > rtol:
            raise ValidationError(f"LU error {err:.3e} exceeds rtol {rtol:g}")
        return err


class BlockLU:
    """Right-looking block LU over the simulated runtime.

    Parameters
    ----------
    machine:
        Target platform.
    block:
        Panel width ``nb``.
    update_efficiency:
        Microkernel efficiency of the trailing-update tiles (a packed
        GEMM, so OpenBLAS-grade).
    panel_efficiency:
        Efficiency of the sequential panel factorization (branchy,
        division-heavy — far below a GEMM kernel).
    """

    name = "block-lu"
    display_name = "Block LU"

    def __init__(
        self,
        machine: MachineSpec,
        block: int = 128,
        update_efficiency: float = 0.92,
        panel_efficiency: float = 0.30,
    ):
        require_positive(block, "block")
        require_fraction(update_efficiency, "update_efficiency")
        require_fraction(panel_efficiency, "panel_efficiency")
        self.machine = machine
        self.block = block
        self.update_efficiency = update_efficiency
        self.panel_efficiency = panel_efficiency

    # ---- cost helpers ---------------------------------------------------

    def _panel_cost(self, nb: int) -> TaskCost:
        """Sequential diagonal factorization: ~(2/3) nb^3 flops."""
        flops = (2.0 / 3.0) * float(nb) ** 3
        stream = streaming_traffic(nb * nb * _WORD, self.machine, locality=0.8)
        return TaskCost(
            flops=max(flops, 1.0),
            efficiency=self.panel_efficiency,
            bytes_l1=stream.l1,
            bytes_l2=stream.l2,
            bytes_l3=stream.l3,
            bytes_dram=stream.dram,
        )

    def _solve_cost(self, nb: int, m: int) -> TaskCost:
        """Triangular solve of an ``m x nb`` panel: nb^2 * m flops."""
        flops = float(nb) ** 2 * m
        stream = streaming_traffic(2.0 * m * nb * _WORD, self.machine, locality=0.7)
        return TaskCost(
            flops=max(flops, 1.0),
            efficiency=0.6,
            bytes_l1=stream.l1,
            bytes_l2=stream.l2,
            bytes_l3=stream.l3,
            bytes_dram=stream.dram,
        )

    # ---- lowering ---------------------------------------------------------

    def build(
        self, n: int, threads: int, seed: int = 0, execute: bool = True
    ) -> LUBuildResult:
        """Lower the full factorization to one task graph."""
        require_positive(n, "n")
        require_positive(threads, "threads")
        if n % self.block:
            raise ValidationError(
                f"n={n} must be a multiple of the block size {self.block}"
            )
        a = original = None
        if execute:
            base = random_matrix(n, seed=seed)
            # Diagonal dominance keeps no-pivot LU stable.
            original = base + n * np.eye(n)
            a = original.copy()

        nb = self.block
        steps = n // nb
        omp = OpenMP(f"block-lu[n={n}]", threads)
        prev: int | None = None

        for k in range(steps):
            rem = n - (k + 1) * nb
            k0 = k * nb

            # 1. Sequential panel factorization.
            panel_compute = None
            if execute:

                def panel_compute(k0=k0, nb=nb):
                    block = a[k0 : k0 + nb, k0 : k0 + nb]
                    for j in range(nb - 1):
                        block[j + 1 :, j] /= block[j, j]
                        block[j + 1 :, j + 1 :] -= np.outer(
                            block[j + 1 :, j], block[j, j + 1 :]
                        )

            panel = omp.task(
                f"seq-panel/{k}",
                self._panel_cost(nb),
                [prev] if prev is not None else [],
                panel_compute,
            )
            if rem == 0:
                prev = panel
                break

            # 2. Parallel triangular solves (row panel U12, col panel L21).
            solve_computes = None
            if execute:

                def solve_row(k0=k0, nb=nb):
                    lower = np.tril(a[k0 : k0 + nb, k0 : k0 + nb], -1) + np.eye(nb)
                    rhs = a[k0 : k0 + nb, k0 + nb :]
                    # Forward substitution L11 * U12 = A12.
                    for j in range(1, nb):
                        rhs[j] -= lower[j, :j] @ rhs[:j]

                def solve_col(k0=k0, nb=nb):
                    upper = np.triu(a[k0 : k0 + nb, k0 : k0 + nb])
                    lhs = a[k0 + nb :, k0 : k0 + nb]
                    # Column substitution L21 * U11 = A21.
                    for j in range(nb):
                        lhs[:, j] = (
                            lhs[:, j] - lhs[:, :j] @ upper[:j, j]
                        ) / upper[j, j]

                solve_computes = [solve_row, solve_col]
            solves = omp.sections(
                f"solves/{k}",
                [self._solve_cost(nb, rem), self._solve_cost(nb, rem)],
                deps=[panel],
                computes=solve_computes,
            )

            # 3. Parallel trailing update: A22 -= L21 @ U12.
            rows = tile_grid(rem, threads)
            cols = tile_grid(rem, threads)
            update_tasks = []
            total_flops = 2.0 * rem * rem * nb
            total_dram = streaming_traffic(
                2.0 * rem * rem * _WORD, self.machine, locality=0.6
            ).dram
            for ro, rs in rows:
                for co, cs in cols:
                    share = total_dram * (2.0 * rs * cs * nb / total_flops)
                    cost = blocked_tile_cost(
                        rs, cs, nb, self.machine, self.update_efficiency, share
                    )
                    compute = None
                    if execute:

                        def compute(k0=k0, nb=nb, ro=ro, rs=rs, co=co, cs=cs):
                            r0 = k0 + nb + ro
                            c0 = k0 + nb + co
                            a[r0 : r0 + rs, c0 : c0 + cs] -= (
                                a[r0 : r0 + rs, k0 : k0 + nb]
                                @ a[k0 : k0 + nb, c0 : c0 + cs]
                            )

                    update_tasks.append(
                        omp.task(f"par-update/{k}[{ro},{co}]", cost, [solves], compute)
                    )
            prev = omp.taskwait(update_tasks, name=f"step-join/{k}")

        return LUBuildResult(
            graph=omp.graph, computes=omp.computes, n=n, original=original, lu=a
        )

    # ---- Eq. 2 application --------------------------------------------------

    def phase_measurements(
        self, n: int, threads: int, seed: int = 0, engine: Engine | None = None
    ) -> tuple[RunMeasurement, RunMeasurement]:
        """Measure the sequential and parallel portions separately.

        The sequential graph chains every panel factorization on one
        core; the parallel graph holds everything else at *threads*
        workers — the decomposition Eq. 2 assumes.
        """
        engine = engine or Engine(self.machine)
        full = self.build(n, threads, seed=seed, execute=False).graph

        seq = OpenMP("lu-sequential")
        par = OpenMP("lu-parallel", threads)
        seq_prev: int | None = None
        par_ids: dict[int, int] = {}
        deps_of = full.deps_list()
        for tid, name in enumerate(full.names_list()):
            cost = full.cost(tid)
            if name.startswith("seq-"):
                seq_prev = seq.task(
                    name, cost, [seq_prev] if seq_prev is not None else []
                )
            elif not cost.is_zero:
                deps = [par_ids[d] for d in deps_of[tid] if d in par_ids]
                par_ids[tid] = par.task(name, cost, deps)
        seq_meas = engine.run(seq.graph, threads=1, label=f"lu-seq[n={n}]")
        par_meas = engine.run(par.graph, threads=threads, label=f"lu-par[n={n}]")
        return seq_meas, par_meas


@dataclass(frozen=True)
class MixedEPReport:
    """Eq. 2 applied to one mixed workload."""

    sequential: RunMeasurement
    parallel: RunMeasurement
    ep_t: float
    sequential_fraction: float

    def summary(self) -> str:
        return (
            f"EP_t={self.ep_t:.4g} "
            f"(T_s={self.sequential.elapsed_s:.4g}s, "
            f"max T_p={self.parallel.elapsed_s:.4g}s, "
            f"serial fraction {self.sequential_fraction:.1%})"
        )


def mixed_ep(
    workload: BlockLU,
    n: int,
    threads: int,
    seed: int = 0,
    convention: EPConvention = "power",
    engine: Engine | None = None,
) -> MixedEPReport:
    """Eq. 2: ``EP_t = (EAvg_s + max(EAvg_p)) / (T_s + max(T_p))`` for a
    block-LU instance."""
    seq, par = workload.phase_measurements(n, threads, seed=seed, engine=engine)
    if convention == "power":
        eavg_s, eavg_p = seq.avg_power_w(), par.avg_power_w()
    else:
        eavg_s, eavg_p = seq.energy.package, par.energy.package
    ep_t = ep_total(eavg_s, [eavg_p], seq.elapsed_s, [par.elapsed_s])
    total = seq.elapsed_s + par.elapsed_s
    return MixedEPReport(
        sequential=seq,
        parallel=par,
        ep_t=ep_t,
        sequential_fraction=seq.elapsed_s / total if total else 0.0,
    )
