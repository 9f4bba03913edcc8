"""Sequential reference implementations of fast matrix multiplication.

These are the *numerical* kernels of the Strassen family — pure numpy,
no simulation.  The numerics programs of :mod:`repro.algorithms` run
them (whole, as grain tasks, or as single-level steps), and the
``numerics_program`` verify family uses them as independent oracles.

Both schedules follow the operation counts the cost models assume:

* :func:`winograd_product` — Strassen-Winograd, 7 multiplies + 15
  additions per level (S1..S4, T1..T4, U2..U4, and the four C blocks).
* :func:`classic_strassen_product` — classic Strassen per the paper's
  Eq. 7: 7 multiplies + 18 additions (10 pre, 8 post).  Note the paper's
  printed Eq. 7 contains two typos (Q5's first factor is ``A11+A12``,
  not ``A11+B12``; Q6's is ``A21-A11``, not ``A21-A12``); the corrected
  standard form is implemented.
"""

from __future__ import annotations

import numpy as np

from ..util.errors import ValidationError
from ..util.validation import is_power_of_two, require_positive
from .dense import require_square, split_quadrants

__all__ = [
    "winograd_product",
    "classic_strassen_product",
    "winograd_product_peeled",
    "recursion_depth",
]


def _check_inputs(a: np.ndarray, b: np.ndarray, cutoff: int) -> int:
    require_square(a, "a")
    require_square(b, "b")
    if a.shape != b.shape:
        raise ValidationError(f"operand shapes differ: {a.shape} vs {b.shape}")
    require_positive(cutoff, "cutoff")
    n = a.shape[0]
    if n > cutoff and not is_power_of_two(n):
        raise ValidationError(
            f"recursive multiply needs a power-of-two dimension above the "
            f"cutoff, got n={n} (pad with linalg.pad_to_power_of_two)"
        )
    return n


def recursion_depth(n: int, cutoff: int) -> int:
    """Levels of recursion before the ``<= cutoff`` leaf solver fires."""
    require_positive(n, "n")
    require_positive(cutoff, "cutoff")
    depth = 0
    while n > cutoff:
        if n % 2:
            raise ValidationError(f"odd dimension {n} above cutoff {cutoff}")
        n //= 2
        depth += 1
    return depth


def winograd_product(a: np.ndarray, b: np.ndarray, cutoff: int = 64) -> np.ndarray:
    """``a @ b`` via Strassen-Winograd recursion down to *cutoff*."""
    n = _check_inputs(a, b, cutoff)
    if n <= cutoff:
        return a @ b
    a11, a12, a21, a22 = split_quadrants(a)
    b11, b12, b21, b22 = split_quadrants(b)

    s1 = a21 + a22
    s2 = s1 - a11
    s3 = a11 - a21
    s4 = a12 - s2
    t1 = b12 - b11
    t2 = b22 - t1
    t3 = b22 - b12
    t4 = t2 - b21

    p1 = winograd_product(a11, b11, cutoff)
    p2 = winograd_product(a12, b21, cutoff)
    p3 = winograd_product(s4, b22, cutoff)
    p4 = winograd_product(a22, t4, cutoff)
    p5 = winograd_product(s1, t1, cutoff)
    p6 = winograd_product(s2, t2, cutoff)
    p7 = winograd_product(s3, t3, cutoff)

    u2 = p1 + p6
    u3 = u2 + p7
    u4 = u2 + p5

    h = n // 2
    c = np.empty((n, n), dtype=np.result_type(a, b))
    c[:h, :h] = p1 + p2
    c[:h, h:] = u4 + p3
    c[h:, :h] = u3 - p4
    c[h:, h:] = u3 + p5
    return c


def winograd_product_peeled(
    a: np.ndarray, b: np.ndarray, cutoff: int = 64
) -> np.ndarray:
    """``a @ b`` via Winograd recursion with *dynamic peeling* for odd
    dimensions.

    Instead of zero-padding to a power of two (the default lowering's
    strategy), odd sizes peel the last row/column: the even-dimension
    core recurses, and the borders are restored with rank-1/GEMV
    updates.  Peeling avoids padding's memory blow-up at the cost of
    extra O(n^2) work per odd level — the classic trade (Huss-Lederman
    et al.), exposed here so the two strategies can be compared.
    """
    n = a.shape[0]
    require_square(a, "a")
    require_square(b, "b")
    if a.shape != b.shape:
        raise ValidationError(f"operand shapes differ: {a.shape} vs {b.shape}")
    require_positive(cutoff, "cutoff")
    if n <= cutoff:
        return a @ b
    if n % 2 == 1:
        m = n - 1
        core = winograd_product_peeled(a[:m, :m], b[:m, :m], cutoff)
        c = np.empty((n, n), dtype=np.result_type(a, b))
        # Core plus the rank-1 contribution of A's last column / B's
        # last row.
        c[:m, :m] = core + np.outer(a[:m, m], b[m, :m])
        # Borders: last column, last row, corner.
        c[:m, m] = a[:m, :m] @ b[:m, m] + a[:m, m] * b[m, m]
        c[m, :m] = a[m, :m] @ b[:m, :m] + a[m, m] * b[m, :m]
        c[m, m] = a[m, :m] @ b[:m, m] + a[m, m] * b[m, m]
        return c
    h = n // 2
    a11, a12, a21, a22 = split_quadrants(a)
    b11, b12, b21, b22 = split_quadrants(b)

    s1 = a21 + a22
    s2 = s1 - a11
    s3 = a11 - a21
    s4 = a12 - s2
    t1 = b12 - b11
    t2 = b22 - t1
    t3 = b22 - b12
    t4 = t2 - b21

    p1 = winograd_product_peeled(a11, b11, cutoff)
    p2 = winograd_product_peeled(a12, b21, cutoff)
    p3 = winograd_product_peeled(s4, b22, cutoff)
    p4 = winograd_product_peeled(a22, t4, cutoff)
    p5 = winograd_product_peeled(s1, t1, cutoff)
    p6 = winograd_product_peeled(s2, t2, cutoff)
    p7 = winograd_product_peeled(s3, t3, cutoff)

    u2 = p1 + p6
    u3 = u2 + p7
    u4 = u2 + p5

    c = np.empty((n, n), dtype=np.result_type(a, b))
    c[:h, :h] = p1 + p2
    c[:h, h:] = u4 + p3
    c[h:, :h] = u3 - p4
    c[h:, h:] = u3 + p5
    return c


def classic_strassen_product(
    a: np.ndarray, b: np.ndarray, cutoff: int = 64
) -> np.ndarray:
    """``a @ b`` via classic Strassen (paper Eq. 7, corrected)."""
    n = _check_inputs(a, b, cutoff)
    if n <= cutoff:
        return a @ b
    a11, a12, a21, a22 = split_quadrants(a)
    b11, b12, b21, b22 = split_quadrants(b)

    q1 = classic_strassen_product(a11 + a22, b11 + b22, cutoff)
    q2 = classic_strassen_product(a21 + a22, b11, cutoff)
    q3 = classic_strassen_product(a11, b12 - b22, cutoff)
    q4 = classic_strassen_product(a22, b21 - b11, cutoff)
    q5 = classic_strassen_product(a11 + a12, b22, cutoff)
    q6 = classic_strassen_product(a21 - a11, b11 + b12, cutoff)
    q7 = classic_strassen_product(a12 - a22, b21 + b22, cutoff)

    h = n // 2
    c = np.empty((n, n), dtype=np.result_type(a, b))
    c[:h, :h] = q1 + q4 - q5 + q7
    c[:h, h:] = q3 + q5
    c[h:, :h] = q2 + q4
    c[h:, h:] = q1 - q2 + q3 + q6
    return c
