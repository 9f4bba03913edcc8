"""SpGEMM: sparse x sparse multiplication (Gustavson's algorithm).

Completes the §VIII "sparse matrix multiplication techniques" triple
(SpMV, SpMM, SpGEMM).  SpGEMM is qualitatively different from the other
two: the output structure is data-dependent, the classic implementation
is Gustavson's row-wise accumulation, and the cost is governed by the
*intermediate product count* ``flops/2 = sum_i sum_{k in A_i} nnz(B_k)``
rather than by nnz(A) alone — which is why its EP behaviour tracks the
compression factor ``intermediate/nnz(C)``.
"""

from __future__ import annotations

import numpy as np

from ..machine.specs import MachineSpec
from ..runtime.arena import TaskArena
from ..runtime.cost import TaskCost
from ..runtime.openmp import OpenMP
from ..util.errors import ValidationError
from ..util.validation import require_fraction, require_positive
from .formats import CSRMatrix

__all__ = [
    "spgemm",
    "spgemm_rows",
    "intermediate_products",
    "spgemm_chunk_cost",
    "SpgemmBuild",
    "build_spgemm_graph",
]

_WORD = 8
_IDX = 4


def _check(a: CSRMatrix, b: CSRMatrix) -> None:
    if not isinstance(a, CSRMatrix) or not isinstance(b, CSRMatrix):
        raise ValidationError("SpGEMM operates on CSR matrices")
    if a.shape[1] != b.shape[0]:
        raise ValidationError(f"inner dimensions differ: {a.shape} @ {b.shape}")


def spgemm_rows(
    a: CSRMatrix, b: CSRMatrix, r0: int, r1: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gustavson accumulation of rows ``[r0, r1)`` of ``A @ B``.

    Returns ``(row_lengths, col_indices, values)`` for the computed
    rows, with each row's entries sorted by column.
    """
    _check(a, b)
    if not (0 <= r0 <= r1 <= a.shape[0]):
        raise ValidationError(f"row range [{r0}, {r1}) out of bounds")
    lengths = np.zeros(r1 - r0, dtype=np.int64)
    cols_out: list[np.ndarray] = []
    vals_out: list[np.ndarray] = []
    for i in range(r0, r1):
        lo, hi = a.indptr[i], a.indptr[i + 1]
        if hi == lo:
            continue
        segments_cols = []
        segments_vals = []
        for slot in range(lo, hi):
            k = a.indices[slot]
            blo, bhi = b.indptr[k], b.indptr[k + 1]
            if bhi > blo:
                segments_cols.append(b.indices[blo:bhi])
                segments_vals.append(a.data[slot] * b.data[blo:bhi])
        if not segments_cols:
            continue
        raw_cols = np.concatenate(segments_cols)
        raw_vals = np.concatenate(segments_vals)
        unique_cols, inverse = np.unique(raw_cols, return_inverse=True)
        summed = np.zeros(len(unique_cols), dtype=np.float64)
        np.add.at(summed, inverse, raw_vals)
        keep = summed != 0.0
        unique_cols, summed = unique_cols[keep], summed[keep]
        lengths[i - r0] = len(unique_cols)
        cols_out.append(unique_cols)
        vals_out.append(summed)
    cols = np.concatenate(cols_out) if cols_out else np.empty(0, dtype=np.int32)
    vals = np.concatenate(vals_out) if vals_out else np.empty(0, dtype=np.float64)
    return lengths, cols.astype(np.int32), vals


def spgemm(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Full ``C = A @ B`` in CSR."""
    _check(a, b)
    lengths, cols, vals = spgemm_rows(a, b, 0, a.shape[0])
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    return CSRMatrix((a.shape[0], b.shape[1]), indptr, cols, vals)


def intermediate_products(a: CSRMatrix, b: CSRMatrix, r0: int, r1: int) -> int:
    """Gustavson's work measure for rows [r0, r1): the number of scalar
    multiply-adds before duplicate-column compression."""
    _check(a, b)
    b_row_nnz = np.diff(b.indptr)
    lo, hi = a.indptr[r0], a.indptr[r1]
    return int(b_row_nnz[a.indices[lo:hi]].sum())


def spgemm_chunk_cost(
    a: CSRMatrix,
    b: CSRMatrix,
    machine: MachineSpec,
    r0: int,
    r1: int,
    efficiency: float = 0.10,
    b_locality: float = 0.8,
) -> TaskCost:
    """Cost vector of computing rows ``[r0, r1)`` of ``A @ B``.

    Flops are twice the intermediate-product count (multiply + add);
    traffic = A's chunk storage + the B rows gathered (discounted by
    *b_locality* for repeat fetches) + the produced C entries.  The
    low *efficiency* reflects Gustavson's indirection-heavy inner loop.
    """
    require_fraction(efficiency, "efficiency")
    inter = intermediate_products(a, b, r0, r1)
    lo, hi = a.indptr[r0], a.indptr[r1]
    a_bytes = (hi - lo) * (_WORD + _IDX)
    distinct_rows = np.unique(a.indices[lo:hi])
    b_row_bytes = np.diff(b.indptr)[distinct_rows].sum() * (_WORD + _IDX)
    repeat = max(0, inter - int(b_row_bytes // (_WORD + _IDX)))
    gather_bytes = float(b_row_bytes) + repeat * (_WORD + _IDX) * (1.0 - b_locality)
    c_bytes = inter * (_WORD + _IDX)  # upper bound on produced entries
    total = a_bytes + gather_bytes + c_bytes

    llc = machine.caches.last_level_capacity
    fit_b = min(1.0, llc / max(1.0, float(b.storage_bytes())))
    dram = a_bytes + gather_bytes * (1.0 - 0.9 * fit_b) + c_bytes
    return TaskCost(
        flops=2.0 * max(inter, 1),
        efficiency=efficiency,
        bytes_l1=total,
        bytes_l2=total,
        bytes_l3=total,
        bytes_dram=dram,
    )


class SpgemmBuild:
    """A lowered SpGEMM; chunk results are assembled by the join."""

    def __init__(self, graph: TaskArena, computes: list, a: CSRMatrix, b: CSRMatrix):
        self.graph = graph
        self.computes = computes
        self.a = a
        self.b = b
        self.chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = []
        self.result: CSRMatrix | None = None

    def verify(self, rtol: float = 1e-10) -> float:
        """Max relative error vs the dense product; raises on miss."""
        if self.result is None:
            raise ValidationError("graph not executed (or execute=False)")
        reference = self.a.to_dense() @ self.b.to_dense()
        scale = float(np.max(np.abs(reference))) or 1.0
        err = float(np.max(np.abs(self.result.to_dense() - reference)) / scale)
        if err > rtol:
            raise ValidationError(f"SpGEMM error {err:.3e} exceeds rtol {rtol:g}")
        return err


def build_spgemm_graph(
    a: CSRMatrix,
    b: CSRMatrix,
    machine: MachineSpec,
    threads: int,
    execute: bool = True,
    efficiency: float = 0.10,
) -> SpgemmBuild:
    """Lower ``A @ B`` to a row-chunked task graph with an assembly
    join (the standard parallel Gustavson decomposition)."""
    _check(a, b)
    require_positive(threads, "threads")
    from .spmv import row_chunks

    omp = OpenMP(f"spgemm[m={a.shape[0]}]", threads)
    build = SpgemmBuild(omp.graph, omp.computes, a, b)
    ranges = row_chunks(a, threads)
    build.chunks = [None] * len(ranges)

    chunk_tasks = []
    for idx, (r0, r1) in enumerate(ranges):
        cost = spgemm_chunk_cost(a, b, machine, r0, r1, efficiency)
        compute = None
        if execute:

            def compute(idx=idx, r0=r0, r1=r1):
                build.chunks[idx] = spgemm_rows(a, b, r0, r1)

        chunk_tasks.append(omp.task(f"rows[{r0}:{r1}]", cost, [], compute))

    assemble_compute = None
    if execute:

        def assemble_compute():
            lengths = np.concatenate([c[0] for c in build.chunks])
            cols = np.concatenate([c[1] for c in build.chunks])
            vals = np.concatenate([c[2] for c in build.chunks])
            indptr = np.concatenate([[0], np.cumsum(lengths)])
            build.result = CSRMatrix(
                (a.shape[0], b.shape[1]), indptr, cols, vals
            )

    # Assembly streams the produced entries once more.
    inter_total = intermediate_products(a, b, 0, a.shape[0])
    assemble_cost = TaskCost(
        flops=1.0,
        efficiency=1.0,
        bytes_l1=inter_total * (_WORD + _IDX),
        bytes_l2=inter_total * (_WORD + _IDX),
        bytes_l3=inter_total * (_WORD + _IDX),
        bytes_dram=inter_total * (_WORD + _IDX) * 0.5,
    )
    omp.task("assemble", assemble_cost, chunk_tasks, assemble_compute)
    build.graph = omp.graph
    return build
