"""Sparse-matrix extension (paper §VIII): storage schemes implemented
from scratch (COO/CSR/ELL/BSR), SpMV lowering with per-format cost
models, synthetic pattern generators and the storage-scheme EP study."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".formats": ("BSRMatrix", "COOMatrix", "CSRMatrix", "DIAMatrix", "ELLMatrix",
                 "SparseMatrix"),
    ".generators": ("banded", "power_law", "uniform_random"),
    ".spgemm": ("SpgemmBuild", "build_spgemm_graph", "intermediate_products", "spgemm",
                "spgemm_chunk_cost", "spgemm_rows"),
    ".spmm": ("SpmmBuild", "build_spmm_graph", "spmm", "spmm_chunk_cost", "spmm_range"),
    ".spmv": ("SpmvBuild", "build_spmv_graph", "row_chunks", "spmv_chunk_cost"),
    ".study": ("FORMATS", "SparseEPStudy", "SparseStudyResult", "convert"),
})
