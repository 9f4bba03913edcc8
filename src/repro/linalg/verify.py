"""Result verification against a reference multiply."""

from __future__ import annotations

import numpy as np

from ..util.errors import ValidationError
from .stability import error_bound

__all__ = ["VerificationReport", "verify_matmul"]


class VerificationReport:
    """Outcome of checking one computed product against numpy.

    Attributes
    ----------
    abs_error:
        Max-norm absolute error vs the reference product.
    bound:
        The stability bound the error is judged against.
    ok:
        ``abs_error <= bound``.
    """

    def __init__(self, abs_error: float, bound: float):
        self.abs_error = abs_error
        self.bound = bound

    @property
    def ok(self) -> bool:
        return self.abs_error <= self.bound

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "ok" if self.ok else "FAIL"
        return f"VerificationReport({verdict}: err={self.abs_error:.3e} bound={self.bound:.3e})"


def verify_matmul(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    variant: str = "winograd",
    cutoff: int = 64,
) -> VerificationReport:
    """Check that ``c ~= a @ b`` within the *variant*'s stability bound.

    Raises :class:`ValidationError` on shape mismatch; never raises on a
    numerical miss — callers assert on :attr:`VerificationReport.ok` so
    failures carry the measured error.
    """
    if a.shape != b.shape or a.shape != c.shape:
        raise ValidationError(
            f"shape mismatch: a{a.shape} b{b.shape} c{c.shape}"
        )
    # |c - a @ b| in place in the fresh product: no n x n temporaries.
    diff = a @ b
    np.subtract(c, diff, out=diff)
    np.abs(diff, out=diff)
    err = float(np.max(diff)) if diff.size else 0.0
    bound = error_bound(a, b, variant=variant, cutoff=cutoff)
    return VerificationReport(err, bound)
