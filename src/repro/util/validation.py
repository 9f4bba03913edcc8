"""Argument validation helpers.

Small, explicit checks shared across the package.  Each helper raises
:class:`repro.util.errors.ValidationError` with a message naming the
offending parameter, so configuration mistakes surface at construction
time rather than deep inside the simulator.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ValidationError

__all__ = [
    "require_positive",
    "require_nonnegative",
    "require_in_range",
    "require_power_of_two",
    "require_fraction",
    "require_type",
    "require_nonempty",
    "is_power_of_two",
    "next_power_of_two",
]


def _require(value, ok, name: str, rule: str):
    """Raise unless the predicate result *ok* holds everywhere.

    *ok* is ``value <op> bound``: a bool for a scalar, a numpy bool or
    bool array for numpy input.  Predicates are written so NaN fails
    them (every comparison with NaN is false)."""
    if ok is True:
        return value
    if ok is not False:
        # numpy input, so numpy is loaded already; plain Python values
        # never import it.
        import numpy as np

        if np.all(ok):
            return value
        if np.ndim(ok):
            value = np.asarray(value)[~ok][0].item()
    raise ValidationError(f"{name} must be {rule}, got {value!r}")


def require_positive(value, name: str):
    """Return *value* if it is strictly positive (every element of an
    array), else raise.  NaN is rejected."""
    return _require(value, value > 0, name, "> 0")


def require_nonnegative(value, name: str):
    """Return *value* if it is >= 0 (every element of an array), else
    raise.  NaN is rejected; ``inf`` is allowed."""
    return _require(value, value >= 0, name, ">= 0")


def require_in_range(value: float, lo: float, hi: float, name: str) -> float:
    """Return *value* if ``lo <= value <= hi``, else raise."""
    if not (lo <= value <= hi):
        raise ValidationError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value


def require_fraction(value: float, name: str) -> float:
    """Return *value* if it is in (0, 1], else raise.

    Used for efficiency factors; an efficiency of exactly 0 would make
    every duration infinite, which is always a configuration mistake.
    """
    if not (0 < value <= 1):
        raise ValidationError(f"{name} must be in (0, 1], got {value!r}")
    return value


def is_power_of_two(n: int) -> bool:
    """True when *n* is a positive integral power of two."""
    return isinstance(n, int) and n > 0 and (n & (n - 1)) == 0


def require_power_of_two(n: int, name: str) -> int:
    """Return *n* if it is a power of two, else raise."""
    if not is_power_of_two(n):
        raise ValidationError(f"{name} must be a power of two, got {n!r}")
    return n


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= *n* (``n`` must be positive)."""
    if n <= 0:
        raise ValidationError(f"next_power_of_two requires n > 0, got {n!r}")
    return 1 << (int(n) - 1).bit_length()


def require_type(value, types, name: str):
    """Return *value* if ``isinstance(value, types)``, else raise."""
    if not isinstance(value, types):
        raise ValidationError(
            f"{name} must be an instance of {types!r}, got {type(value).__name__}"
        )
    return value


def require_nonempty(seq: Sequence | Iterable, name: str):
    """Return *seq* if it contains at least one element, else raise."""
    seq = list(seq) if not isinstance(seq, Sequence) else seq
    if len(seq) == 0:
        raise ValidationError(f"{name} must not be empty")
    return seq
