"""§VIII extension: EP of sparse storage schemes (CSR/COO/ELL/BSR)
across structured and adversarial patterns."""

import pytest
from conftest import write_result

from repro.machine import haswell_e3_1225
from repro.sparse import SparseEPStudy, banded, power_law
from repro.util.tables import TextTable


@pytest.fixture(scope="module")
def machine_():
    return haswell_e3_1225()


def test_ext_sparse_banded(benchmark, machine_, results_dir):
    pattern = banded(1024, 8, seed=11)
    result = benchmark.pedantic(
        lambda: SparseEPStudy(machine_, pattern, repeats=4, verify=False).run(),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "ext_sparse_banded", result.summary_table().to_ascii())

    j = {fmt: result.energy_per_sweep_j(fmt, 4) for fmt in result.formats}
    # Banded structure: DIA (no per-entry indices) most energy-efficient,
    # blocked BSR second; COO's double index array the worst of the
    # index-carrying schemes.
    assert j["dia"] <= min(j.values()) * 1.001
    assert j["bsr"] <= min(j["csr"], j["coo"], j["ell"]) * 1.05
    assert j["coo"] >= max(j["csr"], j["bsr"])
    assert result.storage_bytes["dia"] < result.storage_bytes["csr"]
    # Every scheme scales sub-linearly (bandwidth-bound kernel).
    for fmt in result.formats:
        pts = result.scaling_curve(fmt)
        assert pts[-1].s < pts[-1].parallelism


def test_ext_sparse_power_law(benchmark, machine_, results_dir):
    pattern = power_law(1024, avg_degree=8, alpha=1.7, seed=12)
    result = benchmark.pedantic(
        lambda: SparseEPStudy(machine_, pattern, repeats=4, verify=False).run(),
        rounds=1,
        iterations=1,
    )
    write_result(
        results_dir, "ext_sparse_power_law", result.summary_table().to_ascii()
    )

    # Skewed row degrees: ELL pays for its padding in storage, energy
    # and time versus CSR; DIA (dense diagonals on a scattered pattern)
    # is catastrophically worse still — the storage-choice story in one
    # table.
    assert result.storage_bytes["ell"] > 2 * result.storage_bytes["csr"]
    assert result.energy_per_sweep_j("ell", 4) > result.energy_per_sweep_j("csr", 4)
    assert result.time_s("ell", 4) > result.time_s("csr", 4)
    assert result.storage_bytes["dia"] > 20 * result.storage_bytes["csr"]
    assert result.energy_per_sweep_j("dia", 4) > 10 * result.energy_per_sweep_j("csr", 4)


def test_ext_spgemm(benchmark, machine_, results_dir):
    """SpGEMM (Gustavson): squaring a band vs a random pattern — the
    intermediate-product count, not nnz(A), governs cost."""
    from repro.sparse import CSRMatrix, banded, uniform_random
    from repro.runtime.replay import replay_numerics
    from repro.sparse.spgemm import build_spgemm_graph, intermediate_products
    from repro.sim import Engine

    engine = Engine(machine_)

    def run():
        rows = []
        for label, pattern in (
            ("band^2", banded(512, 4, seed=31)),
            ("random^2", uniform_random(512, 0.01, seed=32)),
        ):
            a = CSRMatrix.from_coo(pattern)
            build = build_spgemm_graph(a, a, machine_, threads=4, execute=True)
            meas, schedule = engine.simulate(build.graph, threads=4)
            replay_numerics(lambda: build, schedule)
            inter = intermediate_products(a, a, 0, a.shape[0])
            rows.append(
                (label, a.nnz, inter, build.result.nnz,
                 inter / max(build.result.nnz, 1), meas.elapsed_s,
                 meas.total_energy_j)
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = TextTable(
        ["pattern", "nnz(A)", "intermediates", "nnz(C)", "compression",
         "time (s)", "J"],
        ndigits=4,
    )
    table.extend(rows)
    write_result(results_dir, "ext_spgemm", table.to_ascii())

    band, rand = rows
    # Structured overlap: a band's intermediate products pile onto the
    # same few output diagonals (high compression, nnz(C) ~ 2x band),
    # while random intermediates rarely collide (compression ~1, the
    # output fills in).  Gustavson's cost follows the intermediates,
    # not nnz(A).
    assert band[4] > 3.0  # heavy duplicate accumulation
    assert rand[4] < 2.0  # almost no collisions
    assert rand[3] > 3 * rand[1]  # random product fills in
    assert band[3] < 3 * band[1]  # band output stays banded
