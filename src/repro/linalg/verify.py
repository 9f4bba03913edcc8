"""Result verification against a reference multiply.

:func:`verify_matmul` checks one product.  A run that verifies many
products of the same operands — a study's cells at one ``(n, seed)`` —
shares their inputs through a :class:`NumericsInputs` scope instead:
each problem's operands are drawn once, its reference product ``a @ b``
and the operands' max norms are computed once, and the entry is
released after the last cell that uses it.  Both paths run the same
check (:meth:`ProblemInputs.verify`), so they report the same bits.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..observability.metrics import counter
from ..util.errors import ValidationError
from ..util.validation import require_positive
from .dense import random_matrix
from .stability import max_norm, norm_error_bound

__all__ = [
    "NumericsInputs",
    "ProblemInputs",
    "VerificationReport",
    "problem_operands",
    "verify_matmul",
]

_REFERENCE_PRODUCTS = counter(
    "numerics.reference_products",
    description="reference products a @ b computed to verify a product",
)

#: Elements of the scratch a check forms ``|c - ref|`` in, a block of
#: rows at a time (512 KiB).
_DIFF_BLOCK = 1 << 16


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


def problem_operands(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The seeded ``(A, B)`` operands of an n x n problem: A drawn from
    *seed*, B from ``seed + 1``."""
    require_positive(n, "n")
    return random_matrix(n, seed=seed), random_matrix(n, seed=seed + 1)


class ProblemInputs:
    """One problem's operands *a* and *b*, with the reference product
    ``a @ b`` and the operands' max norms computed on first use."""

    __slots__ = ("a", "b", "_reference", "_norms")

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = a
        self.b = b
        self._reference: np.ndarray | None = None
        self._norms: tuple[float, float] | None = None

    def reference(self) -> np.ndarray:
        """``a @ b``, computed once (ticks
        ``numerics.reference_products``)."""
        if self._reference is None:
            self._reference = self.a @ self.b
            _REFERENCE_PRODUCTS.add()
        return self._reference

    def verify(
        self, c: np.ndarray, variant: str = "winograd", cutoff: int = 64
    ) -> VerificationReport:
        """Check that ``c ~= a @ b`` within the *variant*'s stability
        bound.  Writes neither *c* nor the reference product, so the
        next check of these operands reuses it.  Raises
        :class:`ValidationError` on shape mismatch; never raises on a
        numerical miss — callers assert on :attr:`VerificationReport.ok`
        so failures carry the measured error."""
        a, b = self.a, self.b
        if a.shape != b.shape or a.shape != c.shape:
            raise ValidationError(
                f"shape mismatch: a{a.shape} b{b.shape} c{c.shape}"
            )
        ref = self.reference()
        n = c.shape[0]
        # |c - ref| a block of rows at a time: neither C nor the
        # reference may take it, and an n x n scratch would add to the
        # caller's peak memory.  The maximum of the blocks' maxima is
        # the maximum, NaN included.
        rows = max(1, _DIFF_BLOCK // max(n, 1))
        scratch = np.empty((min(rows, n), n))
        maxima = []
        for lo in range(0, n, rows):
            diff = scratch[: min(rows, n - lo)]
            np.subtract(c[lo : lo + rows], ref[lo : lo + rows], out=diff)
            np.abs(diff, out=diff)
            maxima.append(np.max(diff))
        err = float(np.max(maxima)) if maxima else 0.0
        if self._norms is None:
            self._norms = (max_norm(a), max_norm(b))
        return VerificationReport(
            err, norm_error_bound(n, *self._norms, variant, cutoff)
        )


class NumericsInputs:
    """The :class:`ProblemInputs` a run's verified cells share, by
    ``(n, seed)``.

    *uses* is the run's plan: the ``(n, seed)`` each step verifies, or
    ``None`` for a step that verifies nothing.  :meth:`get` draws a
    problem's operands on its first use; :meth:`done` after step *i*
    releases the entries whose last planned use was step *i*, so no
    operand pair or reference product outlives the cells that need it.
    The shared operands are read-only: a cell that wrote into one would
    change every later cell's inputs.  One scope belongs to one run on
    one thread.
    """

    def __init__(self, uses: Iterable[tuple[int, int] | None] = ()):
        last = {key: step for step, key in enumerate(uses) if key is not None}
        self._release_at = {step: key for key, step in last.items()}
        self._entries: dict[tuple[int, int], ProblemInputs] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, n: int, seed: int) -> ProblemInputs:
        """The shared inputs of the ``(n, seed)`` problem, drawn
        (:func:`problem_operands`) on first use."""
        entry = self._entries.get((n, seed))
        if entry is None:
            a, b = problem_operands(n, seed)
            a.flags.writeable = b.flags.writeable = False
            entry = self._entries[n, seed] = ProblemInputs(a, b)
        return entry

    def done(self, step: int) -> None:
        """Step *step* of the plan has run: release the entry it was the
        last use of, if any."""
        key = self._release_at.get(step)
        if key is not None:
            self._entries.pop(key, None)

    def clear(self) -> None:
        """Release every entry."""
        self._entries.clear()


def verify_matmul(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    variant: str = "winograd",
    cutoff: int = 64,
) -> VerificationReport:
    """Check that ``c ~= a @ b`` within the *variant*'s stability bound:
    :meth:`ProblemInputs.verify` on inputs used once.

    Raises :class:`ValidationError` on shape mismatch; never raises on a
    numerical miss — callers assert on :attr:`VerificationReport.ok` so
    failures carry the measured error.
    """
    return ProblemInputs(a, b).verify(c, variant, cutoff)
