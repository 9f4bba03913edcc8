"""Blocked DGEMM lowering (the OpenBLAS fixture)."""

import numpy as np
import pytest

from repro.algorithms.blocked import BlockedGemm
from repro.runtime.scheduler import Scheduler
from repro.util.errors import ConfigurationError


@pytest.fixture()
def alg(machine):
    return BlockedGemm(machine)


def test_flop_count(alg):
    assert alg.flop_count(512) == 2 * 512**3


def test_numerics_exact(machine, alg, run_program):
    build = run_program(alg, 96, 4)
    assert np.allclose(build.c, build.a @ build.b)
    assert build.verify().ok


def test_graph_is_embarrassingly_parallel(alg):
    build = alg.build_arena(256, threads=4)
    assert len(build.graph.dep_indices) == 0


def test_tile_tasks_cover_output(alg):
    build = alg.build_arena(200, threads=2)
    total_flops = build.graph.flops.sum()
    assert total_flops == pytest.approx(alg.flop_count(200))


def test_cost_only_build_has_no_arrays(alg):
    build = alg.build_arena(128, threads=1)
    assert build.cost_only
    assert build.a is None and build.c is None
    with pytest.raises(Exception):
        build.verify()


def test_llc_resident_dram_traffic_is_cold_only(machine, alg):
    # 512^2: 6.3 MB working set fits the 8 MiB LLC (paper's near-linear case).
    assert alg.dram_traffic_bytes(512) == pytest.approx(3 * 512**2 * 8)


def test_spilling_dram_traffic_scales_with_n_cubed(machine, alg):
    t1024 = alg.dram_traffic_bytes(1024)
    t2048 = alg.dram_traffic_bytes(2048)
    assert t1024 > 3 * 1024**2 * 8  # more than cold load
    # n^3 streaming term dominates as n grows (8x per doubling, minus
    # the shrinking cold-load share).
    assert 5.0 < t2048 / t1024 <= 8.0


def test_near_linear_scaling(machine, alg, engine):
    """The paper: blocked DGEMM gives near-linear scaling on SMPs."""
    times = {}
    for p in (1, 2, 4):
        build = alg.build_arena(512, threads=p)
        times[p] = engine.run(build.graph, threads=p).elapsed_s
    assert times[1] / times[2] == pytest.approx(2.0, rel=0.15)
    assert times[1] / times[4] == pytest.approx(4.0, rel=0.15)


def test_high_efficiency_throughput(alg, engine):
    build = alg.build_arena(512, threads=1)
    meas = engine.run(build.graph, 1)
    # Should sustain close to 0.92 of the 51.2 Gflop/s core peak.
    assert meas.gflops > 0.8 * 51.2


def test_memory_gate(machine):
    alg = BlockedGemm(machine)
    with pytest.raises(ConfigurationError):
        alg.build_arena(20000, threads=1)  # 3*20000^2*8 = 9.6 GB > 4 GB


def test_seed_controls_operands(machine, alg):
    a1, _ = alg.operands(64, seed=1)
    a2, _ = alg.operands(64, seed=1)
    a3, _ = alg.operands(64, seed=2)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, a3)


def test_registry_name(alg):
    assert alg.name == "openblas"
    assert alg.display_name == "OpenBLAS"
