"""Cache hierarchy: the declarative specs the cost models read.

:class:`CacheLevelSpec` / :class:`CacheHierarchySpec` are the
*analytical* description (capacity, line size, associativity,
bandwidth, sharing) that the algorithm cost models (`repro.algorithms`)
use to derive per-kernel traffic volumes, and that the blocked-DGEMM
tuner uses to pick blocking factors the way OpenBLAS does ("determining
what the best blocking factor is for the platform based upon cache
hierarchy and respective capacity of each cache level", paper §IV-A).

The trace-driven LRU simulator the tests cross-check those traffic
models against is :mod:`repro.testing.cachesim` (DESIGN §5).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.errors import ConfigurationError, ValidationError
from ..util.units import KiB, MiB, fmt_bytes
from ..util.validation import is_power_of_two, require_positive

__all__ = ["CacheLevelSpec", "CacheHierarchySpec"]


@dataclass(frozen=True)
class CacheLevelSpec:
    """Static description of one cache level.

    Attributes
    ----------
    name:
        Display name ("L1", "L2", "L3").
    capacity_bytes:
        Total capacity of one instance of this cache.
    line_bytes:
        Cache line size (64 B on every platform we model).
    associativity:
        Ways per set.
    shared:
        ``True`` when one instance is shared by all cores in a socket
        (L3 on the paper's platform); ``False`` for per-core caches.
    bandwidth_bytes_per_s:
        Sustainable fill bandwidth of the level.  For shared levels this
        is an aggregate that concurrent cores contend for; for private
        levels it is per core.
    latency_cycles:
        Load-to-use latency; used only for reporting and the roofline
        helpers, not by the throughput-based engine.
    """

    name: str
    capacity_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    shared: bool = False
    bandwidth_bytes_per_s: float = 100e9
    latency_cycles: int = 4

    def __post_init__(self) -> None:
        require_positive(self.capacity_bytes, "capacity_bytes")
        require_positive(self.bandwidth_bytes_per_s, "bandwidth_bytes_per_s")
        if not is_power_of_two(self.line_bytes):
            raise ConfigurationError(
                f"line_bytes must be a power of two, got {self.line_bytes}"
            )
        if self.associativity < 1:
            raise ConfigurationError("associativity must be >= 1")
        if self.capacity_bytes % (self.line_bytes * self.associativity) != 0:
            raise ConfigurationError(
                f"{self.name}: capacity {self.capacity_bytes} is not divisible "
                f"by line_bytes*associativity"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets (capacity / (line * ways))."""
        return self.capacity_bytes // (self.line_bytes * self.associativity)

    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.capacity_bytes // self.line_bytes

    def fits(self, working_set_bytes: float) -> bool:
        """True when *working_set_bytes* fits entirely in this level."""
        return working_set_bytes <= self.capacity_bytes

    def describe(self) -> str:
        kind = "shared" if self.shared else "private"
        return (
            f"{self.name}: {fmt_bytes(self.capacity_bytes)} "
            f"{self.associativity}-way {kind}"
        )


@dataclass(frozen=True)
class CacheHierarchySpec:
    """An ordered tuple of cache levels, innermost (L1) first."""

    levels: tuple[CacheLevelSpec, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ConfigurationError("hierarchy needs at least one level")
        caps = [lv.capacity_bytes for lv in self.levels]
        if sorted(caps) != caps:
            raise ConfigurationError(
                "cache levels must be ordered by non-decreasing capacity "
                f"(innermost first); got {caps}"
            )

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    def level(self, name: str) -> CacheLevelSpec:
        """Look a level up by name ('L1'/'L2'/'L3')."""
        for lv in self.levels:
            if lv.name == name:
                return lv
        raise ValidationError(f"no cache level named {name!r}")

    @property
    def innermost(self) -> CacheLevelSpec:
        return self.levels[0]

    @property
    def outermost(self) -> CacheLevelSpec:
        return self.levels[-1]

    @property
    def last_level_capacity(self) -> int:
        """Capacity of the last-level cache (the paper's '8MB of cache')."""
        return self.outermost.capacity_bytes

    def smallest_level_containing(self, working_set_bytes: float) -> CacheLevelSpec | None:
        """The innermost level whose capacity holds *working_set_bytes*,
        or ``None`` if even the LLC is too small (the set spills to DRAM)."""
        for lv in self.levels:
            if lv.fits(working_set_bytes):
                return lv
        return None

    @staticmethod
    def haswell_like() -> "CacheHierarchySpec":
        """The E3-1225 hierarchy: 32 KiB L1D + 256 KiB L2 per core,
        8 MiB shared L3."""
        return CacheHierarchySpec(
            (
                CacheLevelSpec("L1", 32 * KiB, 64, 8, False, 200e9, 4),
                CacheLevelSpec("L2", 256 * KiB, 64, 8, False, 80e9, 12),
                CacheLevelSpec("L3", 8 * MiB, 64, 16, True, 120e9, 36),
            )
        )
