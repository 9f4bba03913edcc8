"""SpMV task-graph lowering with per-format cost models (§VIII).

SpMV is the canonical bandwidth-bound kernel: ~2 flops per stored
value against 12+ bytes of storage stream plus the gather traffic on
``x``.  The storage *scheme* decides how many bytes move — exactly the
energy/performance trade the paper's future work targets:

* CSR moves ``12 nnz`` bytes plus row pointers;
* COO moves ``16 nnz`` (two index arrays);
* ELL moves ``12 m k`` — padding is streamed and multiplied;
* BSR moves ``8 * stored + small indices`` — intra-block fill is
  streamed, but per-value index overhead collapses.

The gather traffic is computed *exactly* per row chunk (distinct
columns touched), so structured matrices (banded) get the locality a
real cache would give them.
"""

from __future__ import annotations

import numpy as np

from ..machine.specs import MachineSpec
from ..runtime.arena import TaskArena
from ..runtime.cost import TaskCost
from ..runtime.openmp import OpenMP
from ..util.errors import ValidationError
from ..util.validation import require_fraction, require_positive
from .formats import BSRMatrix, SparseMatrix

__all__ = ["spmv_chunk_cost", "SpmvBuild", "build_spmv_graph", "row_chunks"]

_WORD = 8


def row_chunks(matrix: SparseMatrix, chunks: int) -> list[tuple[int, int]]:
    """Split the row space into *chunks* contiguous ranges (BSR ranges
    are aligned to the block size)."""
    require_positive(chunks, "chunks")
    m = matrix.shape[0]
    align = matrix.b if isinstance(matrix, BSRMatrix) else 1
    units = m // align
    chunks = min(chunks, units) or 1
    base, extra = divmod(units, chunks)
    out = []
    start = 0
    for i in range(chunks):
        size = (base + (1 if i < extra else 0)) * align
        out.append((start, start + size))
        start += size
    if start != m:
        out[-1] = (out[-1][0], m)
    return out


def _chunk_stats(matrix: SparseMatrix, r0: int, r1: int) -> tuple[int, int, int, int]:
    """(nnz, stored_values, index_bytes, distinct_cols) for rows [r0, r1)."""
    coo = matrix.to_coo()
    lo = np.searchsorted(coo.rows, r0, side="left")
    hi = np.searchsorted(coo.rows, r1, side="left")
    nnz = int(hi - lo)
    distinct = int(len(np.unique(coo.cols[lo:hi])))
    frac = nnz / max(1, matrix.nnz)
    stored = int(round(matrix.value_bytes() / _WORD * frac))
    idx_bytes = int(round(matrix.index_bytes() * frac))
    return nnz, stored, idx_bytes, distinct


def spmv_chunk_cost(
    matrix: SparseMatrix,
    machine: MachineSpec,
    r0: int,
    r1: int,
    efficiency: float = 0.15,
    x_locality: float = 0.9,
) -> TaskCost:
    """Cost vector of computing rows ``[r0, r1)`` of ``A @ x``.

    Storage bytes stream once (DRAM when the matrix exceeds the LLC);
    gather traffic is one fetch per *distinct* column plus a
    ``(1 - x_locality)`` re-fetch penalty on the remaining accesses.
    """
    require_fraction(efficiency, "efficiency")
    if not (0.0 <= x_locality <= 1.0):
        raise ValidationError(f"x_locality must be in [0, 1], got {x_locality}")
    nnz, stored, idx_bytes, distinct = _chunk_stats(matrix, r0, r1)
    storage_bytes = stored * _WORD + idx_bytes
    gather_bytes = distinct * _WORD + (max(0, nnz - distinct)) * _WORD * (1.0 - x_locality)
    y_bytes = (r1 - r0) * _WORD
    total = storage_bytes + gather_bytes + y_bytes

    llc = machine.caches.last_level_capacity
    # The storage stream has no reuse: it comes from DRAM unless the
    # whole matrix is LLC-resident.  The gathered vector is shared by
    # every chunk and usually LLC-resident, so its DRAM share shrinks
    # with its fit.
    fit_storage = min(1.0, llc / max(1.0, float(matrix.storage_bytes())))
    fit_x = min(1.0, llc / max(1.0, float(matrix.shape[1] * _WORD)))
    dram = (
        storage_bytes * (1.0 - 0.9 * fit_storage)
        + gather_bytes * (1.0 - 0.9 * fit_x)
        + y_bytes
    )

    flops = 2.0 * max(nnz, 1)
    return TaskCost(
        flops=flops,
        efficiency=efficiency,
        bytes_l1=total,
        bytes_l2=total,
        bytes_l3=total,
        bytes_dram=dram,
    )


class SpmvBuild:
    """A lowered SpMV: arena, per-task closures and in/out vectors."""

    def __init__(self, graph: TaskArena, computes: list, matrix: SparseMatrix, x, y):
        self.graph = graph
        self.computes = computes
        self.matrix = matrix
        self.x = x
        self.y = y

    def verify(self, rtol: float = 1e-10) -> float:
        """Max relative error vs the dense reference; raises on miss."""
        reference = self.matrix.to_dense() @ self.x
        scale = np.max(np.abs(reference)) or 1.0
        err = float(np.max(np.abs(self.y - reference)) / scale)
        if err > rtol:
            raise ValidationError(f"SpMV error {err:.3e} exceeds rtol {rtol:g}")
        return err


def build_spmv_graph(
    matrix: SparseMatrix,
    machine: MachineSpec,
    threads: int,
    x: np.ndarray | None = None,
    repeats: int = 1,
    seed: int = 0,
    execute: bool = True,
    efficiency: float = 0.15,
) -> SpmvBuild:
    """Lower *repeats* SpMV sweeps to a work-shared task graph.

    Each sweep is a ``parallel_for`` over row chunks (one per thread);
    sweeps are chained by a barrier, modelling an iterative solver's
    repeated products.
    """
    require_positive(threads, "threads")
    require_positive(repeats, "repeats")
    m, n = matrix.shape
    if execute:
        if x is None:
            rng = np.random.default_rng(seed)
            x = rng.uniform(-1.0, 1.0, size=n)
        y = np.zeros(m, dtype=np.float64)
    else:
        y = None

    omp = OpenMP(f"spmv[{matrix.format_name},m={m}]", threads)
    ranges = row_chunks(matrix, threads)
    costs = [
        spmv_chunk_cost(matrix, machine, r0, r1, efficiency) for r0, r1 in ranges
    ]
    prev = None
    for sweep in range(repeats):
        chunk_tasks = []
        for (r0, r1), cost in zip(ranges, costs):
            compute = None
            if execute:

                def compute(r0=r0, r1=r1):
                    matrix.spmv_range(r0, r1, x, y)

            deps = [prev] if prev is not None else []
            chunk_tasks.append(
                omp.task(f"sweep{sweep}/rows[{r0}:{r1}]", cost, deps, compute)
            )
        prev = omp.taskwait(chunk_tasks, name=f"sweep{sweep}/join")
    return SpmvBuild(omp.graph, omp.computes, matrix, x, y)
