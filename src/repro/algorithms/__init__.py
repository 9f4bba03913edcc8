"""The paper's three matrix-multiplication fixtures (§IV) as task-graph
lowerings: tuned blocked DGEMM ("OpenBLAS"), BOTS-style Strassen-Winograd
and Communication Avoiding Parallel Strassen (CAPS)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("BuildResult", "MatmulAlgorithm"),
    ".blocked": ("BlockedGemm",),
    ".caps": ("CapsStrassen",),
    ".kernels": ("addition_cost", "blocked_tile_cost", "leaf_gemm_cost"),
    ".mixed": ("BlockLU", "LUBuildResult", "MixedEPReport", "mixed_ep"),
    ".registry": ("ALGORITHMS", "make_algorithm", "paper_algorithms"),
    ".strassen": ("StrassenWinograd",),
    ".traffic": ("LevelTraffic", "block_factor", "gemm_traffic", "streaming_traffic"),
    ".tuning": ("Blocking", "select_blocking", "tile_grid", "tune_parameter"),
})
