"""Dense-matrix helpers shared by the algorithm implementations.

Quadrant splitting/joining (views, never copies — the guides' "use
views, not copies" rule), deterministic random matrices matching the
paper's "randomly generated matrices" workloads, and padding utilities
for non-power-of-two inputs.
"""

from __future__ import annotations

import numpy as np

from ..util.errors import ValidationError
from ..util.validation import next_power_of_two, require_positive

__all__ = [
    "random_matrix",
    "require_square",
    "split_quadrants",
    "join_quadrants",
    "pad_to_power_of_two",
    "matmul_flops",
    "working_set_bytes",
]

_DTYPE = np.float64


def random_matrix(n: int, seed: int = 0, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    """An ``n x n`` float64 matrix with entries uniform in ``[lo, hi)``.

    Deterministic per *seed* so every algorithm in a study multiplies the
    same operands ("each test was executed... using the same driver
    routine", §VI-A).
    """
    require_positive(n, "n")
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(n, n)).astype(_DTYPE, copy=False)


def require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that *a* is a square 2-D float array."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square 2-D, got shape {a.shape}")
    return a


def split_quadrants(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split an even-dimension square matrix into four quadrant *views*
    ``(A11, A12, A21, A22)``.  No data is copied."""
    require_square(a)
    n = a.shape[0]
    if n % 2 != 0:
        raise ValidationError(f"cannot split odd dimension {n} into quadrants")
    h = n // 2
    return a[:h, :h], a[:h, h:], a[h:, :h], a[h:, h:]


def join_quadrants(
    c11: np.ndarray, c12: np.ndarray, c21: np.ndarray, c22: np.ndarray
) -> np.ndarray:
    """Assemble four equal square blocks into one matrix (copies)."""
    h = c11.shape[0]
    for name, block in (("c11", c11), ("c12", c12), ("c21", c21), ("c22", c22)):
        require_square(block, name)
        if block.shape[0] != h:
            raise ValidationError("quadrants must all have the same shape")
    return np.block([[c11, c12], [c21, c22]])


def pad_to_power_of_two(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Zero-pad a square matrix up to the next power-of-two dimension.

    Returns ``(padded, original_n)``; the product of padded operands,
    truncated back to ``original_n``, equals the original product.
    """
    require_square(a)
    n = a.shape[0]
    m = next_power_of_two(n)
    if m == n:
        return a, n
    out = np.zeros((m, m), dtype=a.dtype)
    out[:n, :n] = a
    return out, n


def matmul_flops(n: int) -> float:
    """Classical flop count of an n x n multiply: ``2 n^3``."""
    require_positive(n, "n")
    return 2.0 * float(n) ** 3


def working_set_bytes(n: int, matrices: int = 3, itemsize: int = 8) -> float:
    """Resident bytes of *matrices* dense n x n operands."""
    require_positive(n, "n")
    return float(matrices) * float(n) * float(n) * itemsize
