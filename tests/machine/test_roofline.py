"""Roofline helpers."""

import pytest

from repro.machine.roofline import attainable_flops, locate, ridge_intensity
from repro.runtime.cost import TaskCost
from repro.testing.taskgraph import TaskGraph


def test_ridge_point_haswell(machine):
    # 204.8 Gflop/s over 10.24 GB/s = 20 flop/byte.
    assert ridge_intensity(machine) == pytest.approx(20.0)


def test_ridge_moves_with_cores(machine):
    assert ridge_intensity(machine, cores=1) == pytest.approx(5.0)
    assert ridge_intensity(machine, cores=1) < ridge_intensity(machine, cores=4)


def test_attainable_capped_by_peak(machine):
    assert attainable_flops(machine, 1000.0) == pytest.approx(
        machine.machine_peak_flops
    )


def test_attainable_bandwidth_limited(machine):
    assert attainable_flops(machine, 1.0) == pytest.approx(machine.dram_bandwidth)


def test_attainable_continuous_at_ridge(machine):
    ridge = ridge_intensity(machine)
    assert attainable_flops(machine, ridge) == pytest.approx(
        machine.machine_peak_flops
    )


def test_locate_addition_is_bandwidth_bound(machine):
    from repro.algorithms.kernels import addition_cost

    cost = addition_cost(512, 1, machine, locality=0.0)
    point = locate(machine, cost)
    assert not point.is_compute_bound
    assert point.attainable_flops < machine.machine_peak_flops / 100


def test_locate_cache_resident_is_compute_bound(machine):
    cost = TaskCost(flops=1e9)  # no DRAM traffic at all
    point = locate(machine, cost)
    assert point.is_compute_bound
    assert point.intensity == float("inf")


def test_locate_blocked_gemm_is_compute_bound_at_one_core(machine):
    from repro.algorithms.blocked import BlockedGemm

    alg = BlockedGemm(machine)
    total = TaskGraph.from_arena(alg.build_arena(1024, threads=1).graph).total_cost()
    assert locate(machine, total, cores=1).is_compute_bound


def test_locate_spmv_is_bandwidth_bound(machine):
    from repro.sparse import banded, CSRMatrix
    from repro.sparse.spmv import spmv_chunk_cost

    csr = CSRMatrix.from_coo(banded(512, 4, seed=1))
    cost = spmv_chunk_cost(csr, machine, 0, 512)
    assert not locate(machine, cost).is_compute_bound
