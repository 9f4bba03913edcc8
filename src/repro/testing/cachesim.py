"""A trace-driven set-associative LRU cache simulator.

The oracle of the analytical traffic models: the cost models derive
per-kernel traffic from :class:`~repro.machine.cache.CacheHierarchySpec`
alone, and the tests replay small kernels through
:class:`CacheHierarchySim` to cross-check those volumes (DESIGN §5).  It
is far too slow to drive full-size matmuls, and no product path uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.cache import CacheHierarchySpec, CacheLevelSpec
from ..util.validation import require_positive

__all__ = ["AccessResult", "SetAssociativeCache", "CacheHierarchySim"]


@dataclass
class AccessResult:
    """Outcome of one hierarchy access: which level served the line."""

    address: int
    hit_level: str  # level name, or "MEM" when every level missed

    @property
    def is_memory(self) -> bool:
        return self.hit_level == "MEM"


class SetAssociativeCache:
    """Trace-driven set-associative cache with true-LRU replacement.

    Addresses are byte addresses; each access touches the line containing
    the address.  The implementation keeps per-set lists ordered from LRU
    to MRU, which is ample for the small validation traces the tests use.

    Write-back semantics: stores mark a line dirty; evicting a dirty
    line increments :attr:`writebacks` (the traffic a write-back cache
    pushes toward the next level).
    """

    def __init__(self, spec: CacheLevelSpec):
        self.spec = spec
        self._sets: list[list[int]] = [[] for _ in range(spec.num_sets)]
        self._dirty: set[int] = set()
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.spec.line_bytes
        return line % self.spec.num_sets, line

    def _evict_if_full(self, ways: list[int]) -> None:
        if len(ways) >= self.spec.associativity:
            victim = ways.pop(0)
            if victim in self._dirty:
                self._dirty.discard(victim)
                self.writebacks += 1

    def access(self, address: int, write: bool = False) -> bool:
        """Touch *address*; return ``True`` on hit.

        On a miss the line is installed, evicting the LRU line of its set
        (write-back counted if the victim was dirty).  *write* marks the
        line dirty.
        """
        set_idx, tag = self._locate(address)
        ways = self._sets[set_idx]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.hits += 1
            if write:
                self._dirty.add(tag)
            return True
        self.misses += 1
        self._evict_if_full(ways)
        ways.append(tag)
        if write:
            self._dirty.add(tag)
        return False

    def install(self, address: int) -> bool:
        """Insert the line without demand accounting (prefetch path).

        Returns ``True`` when the line was newly installed.
        """
        set_idx, tag = self._locate(address)
        ways = self._sets[set_idx]
        if tag in ways:
            return False
        self._evict_if_full(ways)
        ways.append(tag)
        return True

    def contains(self, address: int) -> bool:
        """Non-mutating lookup."""
        set_idx, tag = self._locate(address)
        return tag in self._sets[set_idx]

    def is_dirty(self, address: int) -> bool:
        """Whether the line holding *address* is resident and dirty."""
        _, tag = self._locate(address)
        return tag in self._dirty

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Misses / accesses (0 when no accesses were made)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def writeback_bytes(self) -> int:
        """Bytes written back to the next level so far."""
        return self.writebacks * self.spec.line_bytes

    def reset_counters(self) -> None:
        """Zero hit/miss/writeback counters without flushing contents."""
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def flush(self) -> None:
        """Empty the cache and zero counters (dirty state discarded)."""
        self._sets = [[] for _ in range(self.spec.num_sets)]
        self._dirty = set()
        self.reset_counters()


class CacheHierarchySim:
    """A stack of :class:`SetAssociativeCache` instances (inclusive model).

    An access probes L1 first; each miss falls through to the next level.
    Per-level byte counters record fill traffic *into* that level, which
    is what the analytical cost models predict and what the energy model
    charges for.

    Optional next-line prefetching (``prefetch=True``): every demand
    miss also installs the following line throughout the hierarchy —
    the simplest hardware prefetcher, enough to show why streaming
    kernels see far fewer demand misses than the cold-miss count
    suggests.  Prefetch fills are tallied separately
    (:attr:`prefetch_bytes`).
    """

    def __init__(self, spec: CacheHierarchySpec, prefetch: bool = False):
        self.spec = spec
        self.prefetch = prefetch
        self.caches = [SetAssociativeCache(lv) for lv in spec.levels]
        # bytes_filled[i] = bytes moved from level i+1 (or memory) into level i
        self.bytes_filled = [0 for _ in spec.levels]
        self.memory_bytes = 0
        self.prefetch_bytes = 0

    def access(self, address: int, write: bool = False) -> AccessResult:
        """Probe the hierarchy for *address*; fill all missing levels."""
        result = self._demand_access(address, write)
        if self.prefetch and result.hit_level != "L1":
            self._prefetch_line(address + self.spec.innermost.line_bytes)
        return result

    def _demand_access(self, address: int, write: bool) -> AccessResult:
        for i, cache in enumerate(self.caches):
            if cache.access(address, write=write):
                # Hit at level i: levels above were already filled by the
                # miss path of this call (they missed and installed).
                for j in range(i):
                    self.bytes_filled[j] += self.spec.levels[j].line_bytes
                return AccessResult(address, cache.spec.name)
        # Missed everywhere: memory supplies the line, all levels fill.
        for j, lv in enumerate(self.spec.levels):
            self.bytes_filled[j] += lv.line_bytes
        self.memory_bytes += self.spec.outermost.line_bytes
        return AccessResult(address, "MEM")

    def _prefetch_line(self, address: int) -> None:
        installed_somewhere = False
        for cache in self.caches:
            if cache.install(address):
                installed_somewhere = True
        if installed_somewhere:
            self.prefetch_bytes += self.spec.innermost.line_bytes

    def access_range(
        self, start: int, nbytes: int, stride: int = 8, write: bool = False
    ) -> None:
        """Touch every *stride*-th byte in ``[start, start+nbytes)`` —
        convenience for streaming-kernel traces."""
        require_positive(stride, "stride")
        for addr in range(start, start + nbytes, stride):
            self.access(addr, write=write)

    def traffic_by_level(self) -> dict[str, int]:
        """Fill traffic per level name plus ``"MEM"`` for DRAM reads."""
        out = {lv.name: b for lv, b in zip(self.spec.levels, self.bytes_filled)}
        out["MEM"] = self.memory_bytes
        return out

    def writeback_bytes_by_level(self) -> dict[str, int]:
        """Dirty-eviction traffic out of each level."""
        return {c.spec.name: c.writeback_bytes for c in self.caches}

    def flush(self) -> None:
        """Empty every level and zero all counters."""
        for cache in self.caches:
            cache.flush()
        self.bytes_filled = [0 for _ in self.spec.levels]
        self.memory_bytes = 0
        self.prefetch_bytes = 0
