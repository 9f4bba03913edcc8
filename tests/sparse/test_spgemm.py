"""SpGEMM (Gustavson) kernels, costs and lowering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, uniform_random
from repro.sparse.spgemm import (
    build_spgemm_graph,
    intermediate_products,
    spgemm,
    spgemm_chunk_cost,
    spgemm_rows,
)
from repro.util.errors import ValidationError


def csr(n=48, density=0.1, seed=0):
    return CSRMatrix.from_coo(uniform_random(n, density, seed=seed))


class TestNumerics:
    def test_matches_dense(self):
        a, b = csr(seed=1), csr(seed=2)
        c = spgemm(a, b)
        assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense(), atol=1e-12)

    def test_band_times_band_widens(self):
        a = CSRMatrix.from_coo(banded(32, 1, seed=3))
        c = spgemm(a, a)
        assert np.allclose(c.to_dense(), a.to_dense() @ a.to_dense())
        # Tridiagonal squared -> pentadiagonal.
        rows, cols = np.nonzero(c.to_dense())
        assert np.max(np.abs(rows - cols)) == 2

    def test_identity(self):
        a = csr(seed=4)
        eye = CSRMatrix.from_dense(np.eye(a.shape[0]))
        assert np.allclose(spgemm(a, eye).to_dense(), a.to_dense())
        assert np.allclose(spgemm(eye, a).to_dense(), a.to_dense())

    def test_empty_rows_propagate(self):
        d = np.zeros((8, 8))
        d[0, 1] = 2.0
        a = CSRMatrix.from_dense(d)
        c = spgemm(a, csr(8, 0.3, seed=5))
        assert np.allclose(c.to_dense(), d @ csr(8, 0.3, seed=5).to_dense())
        assert c.row_lengths()[3] == 0

    def test_rows_partition(self):
        a, b = csr(seed=6), csr(seed=7)
        full = spgemm(a, b)
        l1, c1, v1 = spgemm_rows(a, b, 0, 24)
        l2, c2, v2 = spgemm_rows(a, b, 24, 48)
        assert np.array_equal(np.concatenate([l1, l2]), full.row_lengths())
        assert np.array_equal(np.concatenate([v1, v2]), full.data)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            spgemm(csr(16, seed=1), csr(32, seed=2))

    def test_numerical_cancellation_dropped(self):
        # A row producing an exact zero entry must not store it.
        a = CSRMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 0.0]]))
        b = CSRMatrix.from_dense(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        c = spgemm(a, b)
        assert c.nnz == 0


class TestCost:
    def test_intermediate_products_hand_case(self):
        # A row with entries in columns {0, 1}; B rows 0 and 1 have 2
        # and 3 entries -> 5 intermediate products for that row.
        a = CSRMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 0.0]]))
        b = CSRMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert intermediate_products(a, b, 0, 1) == 4
        assert intermediate_products(a, b, 1, 2) == 0

    def test_flops_track_intermediates(self, machine):
        a, b = csr(seed=8), csr(seed=9)
        cost = spgemm_chunk_cost(a, b, machine, 0, a.shape[0])
        assert cost.flops == 2 * intermediate_products(a, b, 0, a.shape[0])

    def test_memory_bound(self, machine):
        a, b = csr(seed=10), csr(seed=11)
        cost = spgemm_chunk_cost(a, b, machine, 0, a.shape[0])
        assert cost.arithmetic_intensity() < 1.0


class TestBuild:
    def test_executes_and_verifies(self, machine, run_numerics):
        a, b = csr(seed=12), csr(seed=13)
        build = build_spgemm_graph(a, b, machine, threads=3)
        run_numerics(build.graph, 3)
        assert build.verify() < 1e-12

    def test_assembly_after_chunks(self, machine):
        a, b = csr(seed=14), csr(seed=15)
        build = build_spgemm_graph(a, b, machine, threads=4, execute=False)
        assemble = [t for t in build.graph if t.name == "assemble"]
        assert len(assemble) == 1
        assert len(assemble[0].deps) == 4

    def test_unexecuted_verify_rejected(self, machine):
        build = build_spgemm_graph(csr(seed=1), csr(seed=2), machine, 2, execute=False)
        with pytest.raises(ValidationError):
            build.verify()


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_property_spgemm_matches_dense(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 33))
    da = rng.uniform(-1, 1, size=(n, n))
    db = rng.uniform(-1, 1, size=(n, n))
    da[rng.uniform(size=(n, n)) > 0.3] = 0.0
    db[rng.uniform(size=(n, n)) > 0.3] = 0.0
    a, b = CSRMatrix.from_dense(da), CSRMatrix.from_dense(db)
    assert np.allclose(spgemm(a, b).to_dense(), da @ db, atol=1e-12)
