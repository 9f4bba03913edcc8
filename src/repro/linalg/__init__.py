"""Dense linear-algebra helpers, stability bounds and verification."""

from .dense import (
    join_quadrants,
    matmul_flops,
    pad_to_power_of_two,
    random_matrix,
    require_square,
    split_quadrants,
    working_set_bytes,
)
from .stability import (
    UNIT_ROUNDOFF,
    classical_error_coefficient,
    error_bound,
    max_norm,
    norm_error_bound,
    relative_error,
    strassen_error_coefficient,
    winograd_error_coefficient,
)
from .fastmm import (
    classic_strassen_product,
    recursion_depth,
    winograd_product,
    winograd_product_peeled,
)
from .verify import NumericsInputs, ProblemInputs, VerificationReport, verify_matmul

__all__ = [
    "NumericsInputs",
    "ProblemInputs",
    "UNIT_ROUNDOFF",
    "VerificationReport",
    "classic_strassen_product",
    "classical_error_coefficient",
    "recursion_depth",
    "winograd_product",
    "winograd_product_peeled",
    "error_bound",
    "join_quadrants",
    "matmul_flops",
    "max_norm",
    "norm_error_bound",
    "pad_to_power_of_two",
    "random_matrix",
    "relative_error",
    "require_square",
    "split_quadrants",
    "strassen_error_coefficient",
    "verify_matmul",
    "winograd_error_coefficient",
    "working_set_bytes",
]
