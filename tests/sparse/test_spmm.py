"""SpMM kernels, costs and lowering."""

import numpy as np
import pytest

from repro.sim import Engine
from repro.sparse.formats import BSRMatrix, COOMatrix, CSRMatrix, ELLMatrix
from repro.sparse.generators import banded, power_law, uniform_random
from repro.sparse.spmm import build_spmm_graph, spmm, spmm_chunk_cost, spmm_range
from repro.sparse.spmv import spmv_chunk_cost
from repro.sparse.study import convert
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def pattern():
    return banded(128, 3, seed=9)


ALL = ["coo", "csr", "ell", "bsr"]


@pytest.mark.parametrize("fmt", ALL)
def test_spmm_matches_dense(pattern, fmt):
    m = convert(pattern, fmt)
    rng = np.random.default_rng(0)
    b = rng.uniform(-1, 1, size=(128, 5))
    assert np.allclose(spmm(m, b), m.to_dense() @ b, atol=1e-12)


@pytest.mark.parametrize("fmt", ALL)
def test_spmm_range_partition(pattern, fmt):
    m = convert(pattern, fmt)
    rng = np.random.default_rng(1)
    b = rng.uniform(-1, 1, size=(128, 3))
    c = np.zeros((128, 3))
    spmm_range(m, 0, 64, b, c)
    spmm_range(m, 64, 128, b, c)
    assert np.allclose(c, m.to_dense() @ b, atol=1e-12)


def test_spmm_k_one_matches_spmv(pattern):
    m = convert(pattern, "csr")
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=128)
    c = spmm(m, x[:, None])
    assert np.allclose(c[:, 0], m.spmv(x), atol=1e-12)


def test_spmm_handles_empty_rows():
    d = np.zeros((8, 8))
    d[0, 3] = 2.0
    d[7, 7] = 1.0
    for fmt in ALL:
        m = convert(COOMatrix.from_dense(d), fmt)
        b = np.ones((8, 4))
        assert np.allclose(spmm(m, b), d @ b)


def test_b_shape_validation(pattern):
    m = convert(pattern, "csr")
    with pytest.raises(ValidationError):
        spmm(m, np.ones((64, 3)))
    with pytest.raises(ValidationError):
        spmm(m, np.ones(128))


def test_bsr_alignment(pattern):
    m = convert(pattern, "bsr")
    b = np.ones((128, 2))
    c = np.zeros((128, 2))
    with pytest.raises(ValidationError):
        spmm_range(m, 0, 63, b, c)


class TestCost:
    def test_flops_scale_with_k(self, machine, pattern):
        m = convert(pattern, "csr")
        c1 = spmm_chunk_cost(m, machine, 0, 128, k=1)
        c8 = spmm_chunk_cost(m, machine, 0, 128, k=8)
        assert c8.flops == pytest.approx(8 * c1.flops)

    def test_storage_stream_amortized(self, machine, pattern):
        """The index/value stream is k-independent: intensity grows
        with k — SpMM's whole point."""
        m = convert(pattern, "csr")
        ai = [
            spmm_chunk_cost(m, machine, 0, 128, k=k).arithmetic_intensity()
            for k in (1, 8, 64)
        ]
        assert ai[0] < ai[1] < ai[2]

    def test_k1_close_to_spmv_traffic(self, machine, pattern):
        m = convert(pattern, "csr")
        mm = spmm_chunk_cost(m, machine, 0, 128, k=1)
        mv = spmv_chunk_cost(m, machine, 0, 128)
        assert mm.bytes_l1 == pytest.approx(mv.bytes_l1, rel=0.05)


class TestBuild:
    def test_executes_and_verifies(self, machine, pattern, run_numerics):
        for fmt in ALL:
            m = convert(pattern, fmt)
            build = build_spmm_graph(m, machine, threads=3, k=4, repeats=2)
            run_numerics(build.graph, 3)
            assert build.verify() < 1e-10

    def test_spmm_scales_better_than_spmv(self, machine):
        """With a wide k the kernel leaves the bandwidth wall and
        starts scaling with threads."""
        from repro.sparse.spmv import build_spmv_graph

        pat = uniform_random(512, 0.02, seed=3)
        m = convert(pat, "csr")
        eng = Engine(machine)

        def time_at(builder, threads, **kw):
            b = builder(m, machine, threads, execute=False, **kw)
            return eng.run(b.graph, threads).elapsed_s

        spmv_speedup = time_at(build_spmv_graph, 1) / time_at(build_spmv_graph, 4)
        spmm_speedup = time_at(build_spmm_graph, 1, k=64) / time_at(
            build_spmm_graph, 4, k=64
        )
        assert spmm_speedup > spmv_speedup
