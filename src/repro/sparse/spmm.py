"""SpMM (sparse x dense multi-vector) lowering and cost models (§VIII).

Where SpMV does 2 flops per stored value, SpMM with ``k`` right-hand
columns does ``2k`` flops against the *same* storage stream — the
index/value arrays are read once per sweep regardless of ``k``.  The
arithmetic intensity therefore grows with ``k``, which is exactly why
blocked iterative solvers prefer SpMM: the EP study shows it crossing
from bandwidth-bound (SpMV-like, flat scaling) towards compute-bound
as ``k`` grows.
"""

from __future__ import annotations

import numpy as np

from ..machine.specs import MachineSpec
from ..runtime.arena import TaskArena
from ..runtime.cost import TaskCost
from ..runtime.openmp import OpenMP
from ..util.errors import ValidationError
from ..util.validation import require_fraction, require_positive
from .formats import BSRMatrix, COOMatrix, CSRMatrix, DIAMatrix, ELLMatrix, SparseMatrix
from .spmv import _chunk_stats, row_chunks

__all__ = ["spmm", "spmm_range", "spmm_chunk_cost", "SpmmBuild", "build_spmm_graph"]

_WORD = 8


def spmm(matrix: SparseMatrix, b: np.ndarray) -> np.ndarray:
    """Full ``C = A @ B`` with a dense ``B`` of shape ``(n, k)``."""
    b = _check_b(matrix, b)
    c = np.zeros((matrix.shape[0], b.shape[1]), dtype=np.float64)
    spmm_range(matrix, 0, matrix.shape[0], b, c)
    return c


def _check_b(matrix: SparseMatrix, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != matrix.shape[1]:
        raise ValidationError(
            f"B must be ({matrix.shape[1]}, k), got {b.shape}"
        )
    return b


def spmm_range(
    matrix: SparseMatrix, r0: int, r1: int, b: np.ndarray, c: np.ndarray
) -> None:
    """Compute rows ``[r0, r1)`` of ``A @ B`` into ``c[r0:r1]``."""
    b = _check_b(matrix, b)
    if isinstance(matrix, COOMatrix):
        lo = np.searchsorted(matrix.rows, r0, side="left")
        hi = np.searchsorted(matrix.rows, r1, side="left")
        c[r0:r1] = 0.0
        np.add.at(
            c,
            matrix.rows[lo:hi],
            matrix.values[lo:hi, None] * b[matrix.cols[lo:hi]],
        )
        return
    if isinstance(matrix, CSRMatrix):
        lo, hi = matrix.indptr[r0], matrix.indptr[r1]
        products = matrix.data[lo:hi, None] * b[matrix.indices[lo:hi]]
        starts = (matrix.indptr[r0:r1] - lo).astype(np.int64)
        if len(products) == 0:
            c[r0:r1] = 0.0
            return
        sums = np.add.reduceat(products, np.minimum(starts, len(products) - 1), axis=0)
        empty = np.diff(np.concatenate([starts, [hi - lo]])) == 0
        sums[empty] = 0.0
        c[r0:r1] = sums
        return
    if isinstance(matrix, ELLMatrix):
        rows = slice(r0, r1)
        c[rows] = np.einsum(
            "rs,rsk->rk", matrix.data[rows], b[matrix.indices[rows]]
        )
        return
    if isinstance(matrix, DIAMatrix):
        m, n = matrix.shape
        c[r0:r1] = 0.0
        for off, diag in zip(matrix.offsets, matrix.diagonals):
            lo = max(r0, -off, 0)
            hi = min(r1, n - off, m)
            if hi <= lo:
                continue
            cols = np.arange(lo + off, hi + off)
            c[lo:hi] += diag[cols, None] * b[cols]
        return
    if isinstance(matrix, BSRMatrix):
        if r0 % matrix.b or r1 % matrix.b:
            raise ValidationError(
                f"BSR row range must align to block size {matrix.b}"
            )
        k = b.shape[1]
        bb = b.reshape(-1, matrix.b, k)
        br0, br1 = r0 // matrix.b, r1 // matrix.b
        lo, hi = matrix.indptr[br0], matrix.indptr[br1]
        if hi == lo:
            c[r0:r1] = 0.0
            return
        partial = np.einsum(
            "nij,njk->nik", matrix.blocks[lo:hi], bb[matrix.indices[lo:hi]]
        )
        starts = (matrix.indptr[br0:br1] - lo).astype(np.int64)
        sums = np.add.reduceat(partial, np.minimum(starts, len(partial) - 1), axis=0)
        empty = np.diff(np.concatenate([starts, [hi - lo]])) == 0
        sums[empty] = 0.0
        c[r0:r1] = sums.reshape(r1 - r0, k)
        return
    raise ValidationError(f"unsupported matrix type {type(matrix).__name__}")


def spmm_chunk_cost(
    matrix: SparseMatrix,
    machine: MachineSpec,
    r0: int,
    r1: int,
    k: int,
    efficiency: float = 0.25,
    b_locality: float = 0.9,
) -> TaskCost:
    """Cost of rows ``[r0, r1)`` of ``A @ B[:, :k]``.

    Storage bytes stream once; each *distinct* B row touched is fetched
    once (``8k`` bytes) with a ``(1 - b_locality)`` re-fetch penalty on
    repeat accesses; C writes are ``8k`` per output row.  SpMM kernels
    vectorize over k, hence the higher efficiency than the scalar SpMV
    gather loop.
    """
    require_positive(k, "k")
    require_fraction(efficiency, "efficiency")
    nnz, stored, idx_bytes, distinct = _chunk_stats(matrix, r0, r1)
    storage_bytes = stored * _WORD + idx_bytes
    b_bytes = distinct * _WORD * k + max(0, nnz - distinct) * _WORD * k * (
        1.0 - b_locality
    )
    c_bytes = (r1 - r0) * _WORD * k
    total = storage_bytes + b_bytes + c_bytes

    llc = machine.caches.last_level_capacity
    # Storage streams from DRAM unless LLC-resident; the dense B panel
    # is shared across chunks and its re-reads hit the LLC to the
    # extent it fits (k * n doubles).
    fit_storage = min(1.0, llc / max(1.0, float(matrix.storage_bytes())))
    fit_b = min(1.0, llc / max(1.0, float(matrix.shape[1] * _WORD * k)))
    dram = (
        storage_bytes * (1.0 - 0.9 * fit_storage)
        + b_bytes * (1.0 - 0.9 * fit_b)
        + c_bytes
    )
    return TaskCost(
        flops=2.0 * max(nnz, 1) * k,
        efficiency=efficiency,
        bytes_l1=total,
        bytes_l2=total,
        bytes_l3=total,
        bytes_dram=dram,
    )


class SpmmBuild:
    """A lowered SpMM: arena, per-task closures and operands."""

    def __init__(self, graph: TaskArena, computes: list, matrix: SparseMatrix, b, c):
        self.graph = graph
        self.computes = computes
        self.matrix = matrix
        self.b = b
        self.c = c

    def verify(self, rtol: float = 1e-10) -> float:
        """Max relative error vs the dense reference; raises on miss."""
        reference = self.matrix.to_dense() @ self.b
        scale = np.max(np.abs(reference)) or 1.0
        err = float(np.max(np.abs(self.c - reference)) / scale)
        if err > rtol:
            raise ValidationError(f"SpMM error {err:.3e} exceeds rtol {rtol:g}")
        return err


def build_spmm_graph(
    matrix: SparseMatrix,
    machine: MachineSpec,
    threads: int,
    k: int = 8,
    repeats: int = 1,
    seed: int = 0,
    execute: bool = True,
    efficiency: float = 0.25,
) -> SpmmBuild:
    """Lower *repeats* SpMM sweeps to a work-shared task graph (same
    shape as the SpMV lowering, with ``k`` right-hand columns)."""
    require_positive(threads, "threads")
    require_positive(repeats, "repeats")
    require_positive(k, "k")
    m, n = matrix.shape
    if execute:
        rng = np.random.default_rng(seed)
        b = rng.uniform(-1.0, 1.0, size=(n, k))
        c = np.zeros((m, k), dtype=np.float64)
    else:
        b = c = None

    omp = OpenMP(f"spmm[{matrix.format_name},m={m},k={k}]", threads)
    ranges = row_chunks(matrix, threads)
    costs = [
        spmm_chunk_cost(matrix, machine, r0, r1, k, efficiency)
        for r0, r1 in ranges
    ]
    prev = None
    for sweep in range(repeats):
        chunk_tasks = []
        for (r0, r1), cost in zip(ranges, costs):
            compute = None
            if execute:

                def compute(r0=r0, r1=r1):
                    spmm_range(matrix, r0, r1, b, c)

            deps = [prev] if prev is not None else []
            chunk_tasks.append(
                omp.task(f"sweep{sweep}/rows[{r0}:{r1}]", cost, deps, compute)
            )
        prev = omp.taskwait(chunk_tasks, name=f"sweep{sweep}/join")
    return SpmmBuild(omp.graph, omp.computes, matrix, b, c)
