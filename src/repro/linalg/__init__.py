"""Dense linear-algebra helpers, stability bounds and verification."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".dense": ("join_quadrants", "matmul_flops", "pad_to_power_of_two", "random_matrix",
               "require_square", "split_quadrants", "working_set_bytes"),
    ".fastmm": ("classic_strassen_product", "recursion_depth", "winograd_product",
                "winograd_product_peeled"),
    ".stability": ("UNIT_ROUNDOFF", "classical_error_coefficient", "error_bound", "max_norm",
                   "norm_error_bound", "relative_error", "strassen_error_coefficient",
                   "winograd_error_coefficient"),
    ".verify": ("NumericsInputs", "ProblemInputs", "VerificationReport", "verify_matmul"),
})
