"""Strassen-Winograd lowering (the BOTS fixture)."""

import numpy as np
import pytest

from repro.algorithms.strassen import StrassenWinograd
from repro.util.errors import ConfigurationError


@pytest.fixture()
def alg(machine):
    return StrassenWinograd(machine, cutoff=32, grain=32)


def test_flop_count_below_classical(machine):
    alg = StrassenWinograd(machine)
    # Strassen's reduced operation count (the paper's 'reduction in
    # overall operation count').
    assert alg.flop_count(4096) < 2 * 4096**3
    assert alg.flop_count(64) == 2 * 64**3  # at cutoff: plain


def test_flop_count_recursion(machine):
    alg = StrassenWinograd(machine, cutoff=64)
    n = 128
    expected = 7 * 2 * 64**3 + 15 * 64**2
    assert alg.flop_count(n) == expected


def test_classic_variant_has_18_adds(machine):
    classic = StrassenWinograd(machine, classic=True)
    assert classic.pre_adds + classic.post_adds == 18
    winograd = StrassenWinograd(machine)
    assert winograd.pre_adds + winograd.post_adds == 15


def test_numerics_winograd(machine, alg, run_numerics):
    build = alg.build(128, threads=4)
    run_numerics(build.graph, 4)
    assert build.verify().ok
    assert np.allclose(build.c, build.a @ build.b, atol=1e-9)


def test_numerics_classic(machine, run_numerics):
    alg = StrassenWinograd(machine, cutoff=16, grain=16, classic=True)
    build = alg.build(64, threads=2)
    run_numerics(build.graph, 2)
    assert build.verify().ok


def test_numerics_with_grain(machine, run_numerics):
    alg = StrassenWinograd(machine, cutoff=16, grain=64)
    build = alg.build(256, threads=4)
    run_numerics(build.graph, 4)
    assert build.verify().ok


def test_padding_non_power_of_two(machine, run_numerics):
    alg = StrassenWinograd(machine, cutoff=16, grain=16)
    build = alg.build(48, threads=2)  # pads to 64
    run_numerics(build.graph, 2)
    assert build.c.shape == (48, 48)
    assert np.allclose(build.c, build.a @ build.b, atol=1e-9)


def test_task_structure_seven_children(machine):
    alg = StrassenWinograd(machine, cutoff=64, grain=64)
    build = alg.build(128, threads=4, execute=False)
    counts = build.graph.counts_by_prefix()
    # One node: 1 pre, 7 leaf multiplies (at grain==cutoff==64), 1 post.
    assert counts["pre"] == 1
    assert counts["post"] == 1
    assert counts.get("grain", 0) + counts.get("leaf", 0) == 7


def test_leaf_count_is_power_of_seven(machine):
    alg = StrassenWinograd(machine, cutoff=64, grain=64)
    build = alg.build(512, threads=4, execute=False)
    counts = build.graph.counts_by_prefix()
    # 512 -> 256 -> 128 -> 64: 3 levels => 7^3 leaves/grains.
    leaves = counts.get("grain", 0) + counts.get("leaf", 0)
    assert leaves == 343


def test_pre_before_children_before_post(machine):
    from repro.runtime.scheduler import Scheduler

    alg = StrassenWinograd(machine, cutoff=64, grain=64)
    build = alg.build(128, threads=4, execute=False)
    sched = Scheduler(machine, threads=4).run(build.graph)

    def records(prefix):
        return [r for r in sched.records if r.name.startswith(prefix)]

    pre_end = max(r.end for r in records("pre"))
    post_start = min(r.start for r in records("post"))
    mul_windows = [(r.start, r.end) for r in records("grain") + records("leaf")]
    assert mul_windows
    assert all(s >= pre_end - 1e-12 for s, _ in mul_windows)
    assert all(e <= post_start + 1e-12 for _, e in mul_windows)


def test_memory_gate_at_8192(machine):
    """The paper could not run beyond 4096^2 for the Strassen-derived
    approaches; our footprint model reproduces the gate."""
    alg = StrassenWinograd(machine)
    alg.check_memory(4096)  # fits
    with pytest.raises(ConfigurationError):
        alg.check_memory(8192)


def test_strassen_needs_more_memory_than_blocked(machine):
    from repro.algorithms.blocked import BlockedGemm

    strassen = StrassenWinograd(machine)
    blocked = BlockedGemm(machine)
    assert strassen.memory_footprint_bytes(4096) > blocked.memory_footprint_bytes(4096)


def test_subtree_cost_consistent_with_graph(machine):
    """The aggregate grain cost equals the sum of the expanded graph's
    task costs (same recursion, different granularity)."""
    fine = StrassenWinograd(machine, cutoff=32, grain=32)
    coarse = StrassenWinograd(machine, cutoff=32, grain=128)
    g_fine = fine.build(128, threads=1, execute=False).graph
    g_coarse = coarse.build(128, threads=1, execute=False).graph
    assert g_fine.total_cost().flops == pytest.approx(g_coarse.total_cost().flops)
    assert g_fine.total_cost().bytes_dram == pytest.approx(
        g_coarse.total_cost().bytes_dram
    )


def test_variant_name(machine):
    assert StrassenWinograd(machine).variant == "winograd"
    assert StrassenWinograd(machine, classic=True).variant == "strassen"


class TestPeelStrategy:
    def test_peel_numerics(self, machine, run_numerics):
        alg = StrassenWinograd(machine, cutoff=32, grain=48, odd_strategy="peel")
        build = alg.build(100, threads=4)
        run_numerics(build.graph, 4)
        import numpy as np

        assert np.allclose(build.c, build.a @ build.b, atol=1e-9)

    def test_peel_avoids_padding_memory(self, machine):
        """Peeling at n just above a power of two: padding would nearly
        quadruple the footprint, peeling doesn't."""
        pad = StrassenWinograd(machine, odd_strategy="pad")
        peel = StrassenWinograd(machine, odd_strategy="peel")
        n = 2049
        assert peel.memory_footprint_bytes(n) < 0.5 * pad.memory_footprint_bytes(n)

    def test_peel_flop_overhead_quadratic(self, machine):
        """Peeling adds O(n^2) work over the even core, far below the
        padded variant's jump to the next power of two."""
        peel = StrassenWinograd(machine, cutoff=64, odd_strategy="peel")
        pad = StrassenWinograd(machine, cutoff=64, odd_strategy="pad")
        n = 1025
        assert peel.flop_count(n) < 0.5 * pad.flop_count(n)
        assert peel.flop_count(n) > peel.flop_count(1024)

    def test_peel_task_emitted(self, machine):
        alg = StrassenWinograd(machine, cutoff=32, grain=32, odd_strategy="peel")
        build = alg.build(130, threads=2, execute=False)
        counts = build.graph.counts_by_prefix()
        assert counts.get("peel", 0) >= 1

    def test_classic_peel_rejected(self, machine):
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            StrassenWinograd(machine, classic=True, odd_strategy="peel")

    def test_bad_strategy_rejected(self, machine):
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            StrassenWinograd(machine, odd_strategy="reflect")

    def test_power_of_two_sizes_unchanged(self, machine, engine):
        """On the paper's sizes the two strategies are identical."""
        pad = StrassenWinograd(machine, odd_strategy="pad")
        peel = StrassenWinograd(machine, odd_strategy="peel")
        assert pad.flop_count(512) == peel.flop_count(512)
        g_pad = pad.build(256, 2, execute=False).graph
        g_peel = peel.build(256, 2, execute=False).graph
        assert len(g_pad) == len(g_peel)
