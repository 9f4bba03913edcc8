"""SpMV lowering and cost models."""

import numpy as np
import pytest

from repro.sparse.formats import BSRMatrix, CSRMatrix
from repro.sparse.generators import banded, uniform_random
from repro.sparse.spmv import build_spmv_graph, row_chunks, spmv_chunk_cost
from repro.sparse.study import convert
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def pattern():
    return banded(256, 4, seed=1)


class TestRowChunks:
    def test_partition(self, pattern):
        csr = CSRMatrix.from_coo(pattern)
        chunks = row_chunks(csr, 4)
        assert chunks[0][0] == 0
        assert chunks[-1][1] == 256
        assert sum(b - a for a, b in chunks) == 256

    def test_bsr_alignment(self, pattern):
        bsr = BSRMatrix.from_coo(pattern, 4)
        for a, b in row_chunks(bsr, 3):
            assert a % 4 == 0

    def test_more_chunks_than_rows(self):
        csr = CSRMatrix.from_coo(banded(4, 1, seed=0))
        chunks = row_chunks(csr, 16)
        assert sum(b - a for a, b in chunks) == 4


class TestChunkCost:
    def test_flops_two_per_nnz(self, machine, pattern):
        csr = CSRMatrix.from_coo(pattern)
        cost = spmv_chunk_cost(csr, machine, 0, 256)
        assert cost.flops == pytest.approx(2 * csr.nnz)

    def test_memory_bound(self, machine, pattern):
        csr = CSRMatrix.from_coo(pattern)
        cost = spmv_chunk_cost(csr, machine, 0, 256)
        # ~2 flops per 12+ storage bytes: far below the machine balance
        # of ~20 flop/DRAM-byte, i.e. hopelessly bandwidth-bound.
        assert cost.arithmetic_intensity() < 1.0

    def test_ell_padding_costs_bytes(self, machine):
        from repro.sparse.generators import power_law

        pat = power_law(256, avg_degree=4, alpha=1.6, seed=2)
        csr_cost = spmv_chunk_cost(convert(pat, "csr"), machine, 0, 256)
        ell_cost = spmv_chunk_cost(convert(pat, "ell"), machine, 0, 256)
        assert ell_cost.bytes_l1 > 2 * csr_cost.bytes_l1

    def test_banded_gather_locality(self, machine):
        """A band touches few distinct columns per chunk; random
        patterns touch many — the gather model must see it."""
        band = convert(banded(256, 2, seed=0), "csr")
        rand = convert(uniform_random(256, 0.02, seed=0), "csr")
        band_cost = spmv_chunk_cost(band, machine, 0, 64)
        rand_cost = spmv_chunk_cost(rand, machine, 0, 64)
        band_gather = band_cost.bytes_dram
        # not a strict apples-to-apples, but the band's distinct-column
        # count per chunk is far lower.
        assert band_gather < rand_cost.bytes_dram * 2


class TestBuildGraph:
    def test_numerics_verified(self, machine, pattern, run_numerics):
        csr = CSRMatrix.from_coo(pattern)
        build = build_spmv_graph(csr, machine, threads=4, repeats=2)
        run_numerics(build.graph, 4)
        assert build.verify() < 1e-10

    def test_sweeps_are_chained(self, machine, pattern):
        csr = CSRMatrix.from_coo(pattern)
        build = build_spmv_graph(csr, machine, threads=2, repeats=3, execute=False)
        joins = [t for t in build.graph if t.name.endswith("/join")]
        assert len(joins) == 3

    def test_chunk_count(self, machine, pattern):
        csr = CSRMatrix.from_coo(pattern)
        build = build_spmv_graph(csr, machine, threads=4, repeats=1, execute=False)
        chunks = [t for t in build.graph if "rows[" in t.name]
        assert len(chunks) == 4

    def test_all_formats_execute(self, machine, pattern, run_numerics):
        for fmt in ("csr", "coo", "ell", "bsr"):
            m = convert(pattern, fmt)
            build = build_spmv_graph(m, machine, threads=2, repeats=1)
            run_numerics(build.graph, 2)
            assert build.verify() < 1e-10
