"""Analytical traffic models, cross-checked against the trace-driven
cache simulator (DESIGN §5)."""

import pytest

from repro.algorithms.traffic import block_factor, gemm_traffic, streaming_traffic
from repro.machine.cache import CacheHierarchySpec, CacheLevelSpec
from repro.testing.cachesim import CacheHierarchySim
from repro.util.errors import ValidationError


class TestBlockFactor:
    def test_three_tiles_fit(self):
        b = block_factor(32 * 1024)  # Haswell L1
        assert 3 * b * b * 8 <= 32 * 1024
        assert 3 * (b + 1) * (b + 1) * 8 > 32 * 1024

    def test_llc_block(self):
        b = block_factor(8 * 2**20)
        assert b == 591

    def test_minimum_one(self):
        assert block_factor(1) == 1


class TestGemmTraffic:
    def test_traffic_decreases_with_level(self, machine):
        t = gemm_traffic(256, 256, 256, machine.caches)
        assert t.l1 > t.l2 > t.l3

    def test_volume_scaling(self, machine):
        small = gemm_traffic(128, 128, 128, machine.caches)
        big = gemm_traffic(256, 256, 256, machine.caches)
        assert big.l1 == pytest.approx(8 * small.l1)

    def test_dram_reuse_block_override(self, machine):
        t = gemm_traffic(256, 256, 256, machine.caches, dram_reuse_block=1000)
        assert t.dram == pytest.approx(2 * 256**3 * 8 / 1000)


class TestStreamingTraffic:
    def test_zero_bytes(self, machine):
        t = streaming_traffic(0, machine)
        assert t.l1 == t.dram == 0

    def test_no_locality_all_dram(self, machine):
        t = streaming_traffic(1e6, machine, locality=0.0)
        assert t.dram == 1e6
        assert t.l1 == t.l2 == t.l3 == 1e6

    def test_full_locality_when_fits(self, machine):
        # 1 MB fits the 8 MiB LLC: locality 1.0 -> no DRAM traffic.
        t = streaming_traffic(1e6, machine, locality=1.0)
        assert t.dram == 0.0

    def test_locality_discounted_when_spills(self, machine):
        llc = machine.caches.last_level_capacity
        t = streaming_traffic(4 * llc, machine, locality=1.0)
        # fit = 1/4 -> dram = nbytes * (1 - 0.25)
        assert t.dram == pytest.approx(3 * llc)

    def test_locality_bounds(self, machine):
        with pytest.raises(ValidationError):
            streaming_traffic(1e6, machine, locality=1.5)


class TestCrossCheckWithCacheSim:
    """Replay small kernels through the LRU simulator and compare with
    the analytical models."""

    def _tiny_hierarchy(self):
        return CacheHierarchySpec(
            (
                CacheLevelSpec("L1", 4 * 1024, 64, 4),
                CacheLevelSpec("L2", 32 * 1024, 64, 8),
            )
        )

    def test_streaming_pass_traffic(self):
        """A cold streaming pass over W bytes moves ~W bytes into every
        level — the streaming model's l1/l2 figures."""
        spec = self._tiny_hierarchy()
        sim = CacheHierarchySim(spec)
        nbytes = 16 * 1024  # 4x L1, half of L2
        sim.access_range(0, nbytes, stride=8)
        t = sim.traffic_by_level()
        assert t["L1"] == nbytes
        assert t["L2"] == nbytes
        assert t["MEM"] == nbytes

    def test_second_pass_hits_containing_level(self):
        """Re-streaming a working set that fits L2 but not L1 refetches
        from L2 only — the locality discount streaming_traffic models
        for LLC-resident sets."""
        spec = self._tiny_hierarchy()
        sim = CacheHierarchySim(spec)
        nbytes = 16 * 1024
        sim.access_range(0, nbytes, stride=8)
        mem_after_first = sim.memory_bytes
        sim.access_range(0, nbytes, stride=8)
        assert sim.memory_bytes == mem_after_first  # no new DRAM traffic

    def test_blocked_reuse_cuts_memory_traffic(self):
        """Touching a block repeatedly (blocked gemm's reuse) produces
        far less memory traffic than streaming distinct data — the
        gemm_traffic volume/b model's premise."""
        spec = self._tiny_hierarchy()
        reuse = CacheHierarchySim(spec)
        block = 2 * 1024  # fits L1
        for _ in range(8):
            reuse.access_range(0, block, stride=8)
        stream = CacheHierarchySim(spec)
        stream.access_range(0, 8 * block, stride=8)
        assert reuse.memory_bytes == block
        assert stream.memory_bytes == 8 * block
