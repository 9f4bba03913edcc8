"""CAPS lowering: BFS/DFS hybrid, packing, numerics."""

import numpy as np
import pytest

from repro.algorithms.caps import CapsStrassen
from repro.algorithms.strassen import StrassenWinograd
from repro.runtime.scheduler import Scheduler
from repro.util.errors import ConfigurationError


def test_numerics_bfs_only(machine, run_numerics):
    # cutoff_depth large enough that everything is BFS.
    alg = CapsStrassen(machine, cutoff_depth=4, leaf_cutoff=32, dfs_grain=32)
    build = alg.build(128, threads=4)
    run_numerics(build.graph, 4)
    assert build.verify().ok


def test_numerics_with_dfs_region(machine, run_numerics):
    # cutoff_depth=1: depth 0 BFS, everything below DFS.
    alg = CapsStrassen(machine, cutoff_depth=1, leaf_cutoff=16, dfs_grain=32)
    build = alg.build(128, threads=3)
    run_numerics(build.graph, 3)
    assert build.verify().ok
    assert np.allclose(build.c, build.a @ build.b, atol=1e-9)


def test_numerics_without_packing(machine, run_numerics):
    alg = CapsStrassen(machine, cutoff_depth=2, leaf_cutoff=32, pack=False)
    build = alg.build(128, threads=2)
    run_numerics(build.graph, 2)
    assert build.verify().ok


def test_numerics_padding(machine, run_numerics):
    alg = CapsStrassen(machine, cutoff_depth=2, leaf_cutoff=16)
    build = alg.build(96, threads=2)  # pads to 128
    run_numerics(build.graph, 2)
    assert np.allclose(build.c, build.a @ build.b, atol=1e-9)


def test_flop_count_matches_strassen(machine):
    caps = CapsStrassen(machine)
    strassen = StrassenWinograd(machine)
    for n in (64, 512, 2048):
        assert caps.flop_count(n) == pytest.approx(strassen.flop_count(n))


def test_algorithm_2_dispatch(machine):
    """Paper Algorithm 2: BFS above the cutoff depth, DFS below."""
    alg = CapsStrassen(machine, cutoff_depth=1, leaf_cutoff=64, dfs_grain=64)
    build = alg.build(256, threads=4, execute=False)
    counts = build.graph.counts_by_prefix()
    bfs = [k for k in counts if k.startswith("bfs-")]
    dfs = [k for k in counts if k.startswith("dfs-")]
    assert bfs and dfs


def test_all_bfs_when_shallow(machine):
    alg = CapsStrassen(machine, cutoff_depth=4, leaf_cutoff=64)
    build = alg.build(256, threads=4, execute=False)
    counts = build.graph.counts_by_prefix()
    assert not any(k.startswith("dfs-") for k in counts)


def test_packing_tasks_emitted(machine):
    with_pack = CapsStrassen(machine, cutoff_depth=2, leaf_cutoff=64)
    without = CapsStrassen(machine, cutoff_depth=2, leaf_cutoff=64, pack=False)
    cp = with_pack.build(128, threads=2, execute=False).graph.counts_by_prefix()
    cn = without.build(128, threads=2, execute=False).graph.counts_by_prefix()
    assert cp.get("bfs-pack1", 0) == 1
    assert cp.get("bfs-unpack", 0) == 1
    assert "bfs-pack1" not in cn


def test_packing_adds_traffic_not_flops(machine):
    with_pack = CapsStrassen(machine, cutoff_depth=2, leaf_cutoff=64)
    without = CapsStrassen(machine, cutoff_depth=2, leaf_cutoff=64, pack=False)
    gp = with_pack.build(128, threads=2, execute=False).graph.total_cost()
    gn = without.build(128, threads=2, execute=False).graph.total_cost()
    assert gp.bytes_l1 > gn.bytes_l1
    # Pack tasks carry a token 1-flop cost each; arithmetic is unchanged.
    assert gp.flops == pytest.approx(gn.flops, abs=10)


def test_dfs_children_are_sequential(machine):
    """DFS mode runs the seven sub-problems in sequence even with idle
    cores (the paper's 'each stage... in sequence')."""
    # cutoff_depth=0: the whole tree is DFS.  The root node at 128 has
    # seven 64-wide sub-problems, each a work-shared grain stage.
    alg = CapsStrassen(machine, cutoff_depth=0, leaf_cutoff=32, dfs_grain=64)
    build = alg.build(128, threads=4, execute=False)
    sched = Scheduler(machine, threads=4).run(build.graph)
    grains = [r for r in sched.records if r.name.startswith("dfs-grain/64[")]
    assert len(grains) == 7 * 4  # 7 stages x 4 work-sharing chunks
    # The seven stages run strictly one after another: their chunk
    # start times collapse to exactly seven distinct instants.
    starts = sorted({round(r.start, 12) for r in grains})
    assert len(starts) == 7
    ends_by_start = {}
    for r in grains:
        key = round(r.start, 12)
        ends_by_start[key] = max(ends_by_start.get(key, 0.0), r.end)
    ordered = sorted(ends_by_start)
    for earlier, later in zip(ordered, ordered[1:]):
        assert later >= ends_by_start[earlier] - 1e-12


def test_memory_footprint_exceeds_strassen(machine):
    """'The BFS approach requires additional buffer memory.'"""
    caps = CapsStrassen(machine)
    strassen = StrassenWinograd(machine)
    assert caps.memory_footprint_bytes(4096) > strassen.memory_footprint_bytes(4096)


def test_memory_gate(machine):
    with pytest.raises(ConfigurationError):
        CapsStrassen(machine).check_memory(8192)


def test_default_parameters_match_paper(machine):
    alg = CapsStrassen(machine)
    assert alg.cutoff_depth == 4  # "a cutoff depth of four"
    assert alg.leaf_cutoff == 64  # "dimension is less than or equal to 64"


def test_registry_names(machine):
    assert CapsStrassen(machine).name == "caps"
    assert CapsStrassen(machine).display_name == "CAPS"
