"""Cache specs (``repro.machine``) and the trace-driven LRU simulator
that cross-checks the traffic models (``repro.testing.cachesim``)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.cache import CacheHierarchySpec, CacheLevelSpec
from repro.testing.cachesim import CacheHierarchySim, SetAssociativeCache
from repro.util.errors import ConfigurationError, ValidationError
from repro.util.units import KiB, MiB


def small_level(capacity=1024, line=64, assoc=2, name="L1"):
    return CacheLevelSpec(name, capacity, line, assoc)


class TestSpec:
    def test_num_sets_and_lines(self):
        lv = small_level(capacity=1024, line=64, assoc=2)
        assert lv.num_lines == 16
        assert lv.num_sets == 8

    def test_capacity_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            CacheLevelSpec("L1", 1000, 64, 3)

    def test_line_power_of_two(self):
        with pytest.raises(ConfigurationError):
            CacheLevelSpec("L1", 1024, 48, 2)

    def test_fits(self):
        assert small_level(capacity=1024).fits(1024)
        assert not small_level(capacity=1024).fits(1025)

    def test_hierarchy_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchySpec(
                (small_level(capacity=2048, name="L1"), small_level(capacity=1024, name="L2"))
            )

    def test_haswell_like(self):
        h = CacheHierarchySpec.haswell_like()
        assert h.level("L1").capacity_bytes == 32 * KiB
        assert h.level("L3").capacity_bytes == 8 * MiB
        assert h.level("L3").shared and not h.level("L1").shared
        assert h.last_level_capacity == 8 * MiB
        with pytest.raises(ValidationError):
            h.level("L4")

    def test_smallest_level_containing(self):
        h = CacheHierarchySpec.haswell_like()
        assert h.smallest_level_containing(16 * KiB).name == "L1"
        assert h.smallest_level_containing(1 * MiB).name == "L3"
        assert h.smallest_level_containing(64 * MiB) is None


class TestLru:
    def test_miss_then_hit(self):
        c = SetAssociativeCache(small_level())
        assert c.access(0) is False
        assert c.access(0) is True
        assert c.hits == 1 and c.misses == 1

    def test_same_line_hits(self):
        c = SetAssociativeCache(small_level(line=64))
        c.access(0)
        assert c.access(63) is True  # same 64B line
        assert c.access(64) is False  # next line

    def test_lru_eviction_order(self):
        # 2-way sets; three lines mapping to the same set evict the LRU.
        lv = small_level(capacity=1024, line=64, assoc=2)  # 8 sets
        c = SetAssociativeCache(lv)
        s = lv.num_sets * lv.line_bytes  # stride that stays in one set
        c.access(0)        # A
        c.access(s)        # B
        c.access(0)        # touch A -> B is now LRU
        c.access(2 * s)    # C evicts B
        assert c.contains(0)
        assert not c.contains(s)
        assert c.contains(2 * s)

    def test_full_associativity_within_set(self):
        lv = small_level(capacity=512, line=64, assoc=8)  # one set, 8 ways
        c = SetAssociativeCache(lv)
        for i in range(8):
            c.access(i * 64)
        c.reset_counters()
        for i in range(8):
            assert c.access(i * 64) is True
        assert c.miss_ratio == 0.0

    def test_flush(self):
        c = SetAssociativeCache(small_level())
        c.access(0)
        c.flush()
        assert not c.contains(0)
        assert c.accesses == 0

    def test_capacity_miss_on_large_working_set(self):
        lv = small_level(capacity=1024, line=64, assoc=2)
        c = SetAssociativeCache(lv)
        # Stream 4x the capacity twice: second pass still misses (LRU).
        span = 4 * lv.capacity_bytes
        for _ in range(2):
            for addr in range(0, span, 64):
                c.access(addr)
        assert c.miss_ratio == 1.0


class TestHierarchySim:
    def _sim(self):
        return CacheHierarchySim(
            CacheHierarchySpec(
                (
                    CacheLevelSpec("L1", 1024, 64, 2),
                    CacheLevelSpec("L2", 4096, 64, 4),
                )
            )
        )

    def test_cold_miss_goes_to_memory(self):
        sim = self._sim()
        res = sim.access(0)
        assert res.is_memory
        assert sim.memory_bytes == 64

    def test_l1_hit_after_fill(self):
        sim = self._sim()
        sim.access(0)
        res = sim.access(0)
        assert res.hit_level == "L1"
        assert sim.memory_bytes == 64  # unchanged

    def test_l2_hit_after_l1_eviction(self):
        sim = self._sim()
        sim.access(0)
        # Evict line 0 from L1 (capacity 1024) but keep it in L2 (4096).
        for addr in range(1024, 3 * 1024, 64):
            sim.access(addr)
        res = sim.access(0)
        assert res.hit_level == "L2"

    def test_traffic_accounting(self):
        sim = self._sim()
        sim.access_range(0, 512, stride=8)  # 8 lines
        t = sim.traffic_by_level()
        assert t["L1"] == 8 * 64
        assert t["L2"] == 8 * 64
        assert t["MEM"] == 8 * 64

    def test_flush_resets(self):
        sim = self._sim()
        sim.access(0)
        sim.flush()
        assert sim.traffic_by_level() == {"L1": 0, "L2": 0, "MEM": 0}
        assert sim.access(0).is_memory


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=200))
def test_lru_hit_plus_miss_equals_accesses(trace):
    c = SetAssociativeCache(small_level())
    for addr in trace:
        c.access(addr)
    assert c.hits + c.misses == len(trace)
    assert 0.0 <= c.miss_ratio <= 1.0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**16), min_size=1, max_size=100))
def test_fully_assoc_cache_never_misses_repeat_within_capacity(trace):
    # A cache large enough for the whole trace footprint: the second
    # replay of the trace must be all hits.
    lv = CacheLevelSpec("L1", 2**18, 64, 4096)
    c = SetAssociativeCache(lv)
    for addr in trace:
        c.access(addr)
    c.reset_counters()
    for addr in trace:
        assert c.access(addr) is True


class TestWriteBack:
    def test_store_marks_dirty(self):
        c = SetAssociativeCache(small_level())
        c.access(0, write=True)
        assert c.is_dirty(0)
        c.access(64, write=False)
        assert not c.is_dirty(64)

    def test_dirty_eviction_counts_writeback(self):
        lv = small_level(capacity=1024, line=64, assoc=2)  # 8 sets
        c = SetAssociativeCache(lv)
        s = lv.num_sets * lv.line_bytes
        c.access(0, write=True)
        c.access(s)
        c.access(2 * s)  # evicts dirty line 0
        assert c.writebacks == 1
        assert c.writeback_bytes == 64

    def test_clean_eviction_free(self):
        lv = small_level(capacity=1024, line=64, assoc=2)
        c = SetAssociativeCache(lv)
        s = lv.num_sets * lv.line_bytes
        c.access(0)
        c.access(s)
        c.access(2 * s)
        assert c.writebacks == 0

    def test_rewritten_line_single_writeback(self):
        lv = small_level(capacity=1024, line=64, assoc=2)
        c = SetAssociativeCache(lv)
        s = lv.num_sets * lv.line_bytes
        c.access(0, write=True)
        c.access(0, write=True)  # still one dirty line
        c.access(s)
        c.access(2 * s)
        assert c.writebacks == 1

    def test_hierarchy_writeback_accounting(self):
        sim = CacheHierarchySim(
            CacheHierarchySpec(
                (CacheLevelSpec("L1", 512, 64, 2), CacheLevelSpec("L2", 4096, 64, 4))
            )
        )
        # Write a stream 4x the L1 capacity: dirty L1 evictions occur.
        sim.access_range(0, 2048, stride=64, write=True)
        wb = sim.writeback_bytes_by_level()
        assert wb["L1"] > 0


class TestPrefetch:
    def _spec(self):
        return CacheHierarchySpec(
            (CacheLevelSpec("L1", 1024, 64, 2), CacheLevelSpec("L2", 8192, 64, 4))
        )

    def test_streaming_demand_misses_halve(self):
        base = CacheHierarchySim(self._spec(), prefetch=False)
        pf = CacheHierarchySim(self._spec(), prefetch=True)
        nbytes = 16 * 1024
        base.access_range(0, nbytes, stride=64)
        pf.access_range(0, nbytes, stride=64)
        assert pf.caches[0].misses < base.caches[0].misses
        # Next-line prefetch turns almost every other miss into a hit.
        assert pf.caches[0].misses <= base.caches[0].misses // 2 + 2

    def test_prefetch_traffic_counted(self):
        pf = CacheHierarchySim(self._spec(), prefetch=True)
        pf.access_range(0, 4096, stride=64)
        assert pf.prefetch_bytes > 0

    def test_prefetch_off_by_default(self):
        sim = CacheHierarchySim(self._spec())
        sim.access_range(0, 4096, stride=64)
        assert sim.prefetch_bytes == 0

    def test_flush_clears_prefetch_counter(self):
        pf = CacheHierarchySim(self._spec(), prefetch=True)
        pf.access_range(0, 4096, stride=64)
        pf.flush()
        assert pf.prefetch_bytes == 0
