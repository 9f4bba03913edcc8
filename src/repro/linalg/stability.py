"""Numerical stability of fast matrix multiplication.

The paper notes (§IV-B) that "Strassen has also been known to produce
differences in the numerical stability as compared with traditional
techniques.  ...these issues have been well understood [19]", citing
Higham's *Accuracy and Stability of Numerical Algorithms*.  This module
implements the corresponding forward-error bounds so the test suite can
assert that our Strassen/CAPS results are not merely "close to numpy"
but *within the theoretically expected envelope*.

With unit roundoff ``u``, recursion down to cutoff ``n0`` and max-norm
``||.||`` (elementwise maximum), Higham's bounds have the form::

    ||C - C_hat||  <=  c(n, n0) * u * ||A|| * ||B||  +  O(u^2)

    classical:          c = n^2 + n          (conventional n^2 u bound)
    Strassen:           c = (n/n0)^log2(12) * (n0^2 + 5 n0) - 5 n
    Strassen-Winograd:  c = (n/n0)^log2(18) * (n0^2 + 6 n0) - 6 n

The Winograd variant grows faster (exponent log2 18 ~ 4.17 versus
log2 12 ~ 3.58) because its longer addition chains compound roundoff.
"""

from __future__ import annotations

import math

import numpy as np

from ..util.errors import ValidationError
from ..util.validation import require_positive

__all__ = [
    "UNIT_ROUNDOFF",
    "classical_error_coefficient",
    "strassen_error_coefficient",
    "winograd_error_coefficient",
    "error_bound",
    "max_norm",
    "norm_error_bound",
    "relative_error",
]

#: Unit roundoff of IEEE-754 double precision.
UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0


def _check(n: int, n0: int) -> None:
    require_positive(n, "n")
    require_positive(n0, "n0")
    if n0 > n:
        raise ValidationError(f"cutoff n0={n0} exceeds problem size n={n}")


def classical_error_coefficient(n: int) -> float:
    """Coefficient ``c`` for conventional inner-product multiplication."""
    require_positive(n, "n")
    return float(n) ** 2 + float(n)


def strassen_error_coefficient(n: int, n0: int) -> float:
    """Higham's coefficient for classic Strassen recursion to cutoff *n0*."""
    _check(n, n0)
    ratio = float(n) / float(n0)
    return ratio ** math.log2(12.0) * (n0**2 + 5.0 * n0) - 5.0 * n


def winograd_error_coefficient(n: int, n0: int) -> float:
    """Higham's coefficient for the Strassen-Winograd variant."""
    _check(n, n0)
    ratio = float(n) / float(n0)
    return ratio ** math.log2(18.0) * (n0**2 + 6.0 * n0) - 6.0 * n


def max_norm(a: np.ndarray) -> float:
    """Elementwise maximum absolute value (the norm of the bounds)."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def error_bound(
    a: np.ndarray,
    b: np.ndarray,
    variant: str = "winograd",
    cutoff: int = 64,
    safety: float = 4.0,
) -> float:
    """Absolute forward-error bound for ``a @ b`` under *variant*.

    ``safety`` pads the first-order bound to absorb the O(u^2) terms and
    the bound's norm slack; tests use the default.
    """
    return norm_error_bound(
        a.shape[0], max_norm(a), max_norm(b), variant, cutoff, safety
    )


def norm_error_bound(
    n: int,
    norm_a: float,
    norm_b: float,
    variant: str = "winograd",
    cutoff: int = 64,
    safety: float = 4.0,
) -> float:
    """:func:`error_bound` of an ``n x n`` product from its operands'
    max norms, for a caller that already has them."""
    if variant == "classical":
        coeff = classical_error_coefficient(n)
    elif variant == "strassen":
        coeff = strassen_error_coefficient(n, min(cutoff, n))
    elif variant == "winograd":
        coeff = winograd_error_coefficient(n, min(cutoff, n))
    else:
        raise ValidationError(f"unknown variant {variant!r}")
    return safety * coeff * UNIT_ROUNDOFF * norm_a * norm_b


def relative_error(computed: np.ndarray, reference: np.ndarray) -> float:
    """``||computed - reference|| / ||reference||`` in max norm."""
    denom = max_norm(reference)
    if denom == 0:
        return max_norm(computed)
    return max_norm(computed - reference) / denom
