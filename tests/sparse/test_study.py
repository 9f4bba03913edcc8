"""Sparse EP study."""

import pytest

from repro.sparse.generators import banded, power_law
from repro.sparse.study import SparseEPStudy, convert
from repro.util.errors import ConfigurationError, ValidationError


@pytest.fixture(scope="module")
def result(machine):
    pattern = banded(256, 4, seed=7)
    return SparseEPStudy(
        machine, pattern, threads=(1, 2, 4), repeats=3
    ).run()


def test_all_cells_present(result):
    assert len(result.runs) == 5 * 3


def test_bsr_wins_on_banded(result):
    """Blocked storage amortizes index overhead on a band — lowest
    energy per sweep."""
    j = {fmt: result.energy_per_sweep_j(fmt, 4) for fmt in result.formats}
    assert j["bsr"] <= min(j["csr"], j["coo"], j["ell"]) * 1.05


def test_coo_worst_storage(result):
    assert result.storage_bytes["coo"] >= max(
        result.storage_bytes[f] for f in ("csr", "bsr")
    )


def test_spmv_scales_sublinearly(result):
    """SpMV is bandwidth-bound: 4 threads nowhere near 4x (per-chunk
    gather duplication can even make it fractionally slower)."""
    for fmt in result.formats:
        speedup = result.time_s(fmt, 1) / result.time_s(fmt, 4)
        assert 0.85 <= speedup < 3.0


def test_scaling_curves_sublinear(result):
    for fmt in result.formats:
        pts = result.scaling_curve(fmt)
        assert pts[-1].s < pts[-1].parallelism  # below the line


def test_dia_wins_on_a_wide_band(machine):
    """No per-entry indices: DIA is the most energy-efficient scheme on
    a band, BSR the best index-carrying one, COO's double index array
    the worst."""
    result = SparseEPStudy(machine, banded(1024, 8, seed=11), repeats=4, verify=False).run()
    j = {fmt: result.energy_per_sweep_j(fmt, 4) for fmt in result.formats}
    assert j["dia"] <= min(j.values()) * 1.001
    assert j["bsr"] <= min(j["csr"], j["coo"], j["ell"]) * 1.05
    assert j["coo"] >= max(j["csr"], j["bsr"])
    assert result.storage_bytes["dia"] < result.storage_bytes["csr"]
    for fmt in result.formats:
        pts = result.scaling_curve(fmt)
        assert pts[-1].s < pts[-1].parallelism


def test_padding_costs_on_skewed_rows(machine):
    """Power-law row degrees: ELL's padding costs storage, energy and
    time against CSR, and DIA's dense diagonals are far worse still."""
    pattern = power_law(1024, avg_degree=8, alpha=1.7, seed=12)
    result = SparseEPStudy(machine, pattern, repeats=4, verify=False).run()
    storage, joules = result.storage_bytes, result.energy_per_sweep_j
    assert storage["ell"] > 2 * storage["csr"]
    assert joules("ell", 4) > joules("csr", 4)
    assert result.time_s("ell", 4) > result.time_s("csr", 4)
    assert storage["dia"] > 20 * storage["csr"]
    assert joules("dia", 4) > 10 * joules("csr", 4)


def test_summary_table(result):
    table = result.summary_table()
    assert [row[0] for row in table.rows] == ["CSR", "COO", "ELL", "BSR", "DIA"]
    assert table.headers[0] == "Format"


def test_unknown_format_rejected(machine):
    with pytest.raises(ConfigurationError):
        convert(banded(16, 1), "jds")


def test_missing_run(result):
    with pytest.raises(ValidationError):
        result.measurement("csr", 999)


def test_power_rises_with_threads(result):
    for fmt in result.formats:
        assert result.power_w(fmt, 4) > result.power_w(fmt, 1)


class TestSpmmKernel:
    def test_spmm_study_runs_and_verifies(self, machine):
        pattern = banded(128, 2, seed=8)
        result = SparseEPStudy(
            machine, pattern, threads=(1, 4), repeats=2, kernel="spmm", k=8
        ).run()
        assert len(result.runs) == 5 * 2

    def test_spmm_scales_better_than_spmv(self, machine):
        """Wide right-hand sides amortize the storage stream: SpMM
        leaves the bandwidth wall SpMV sits on."""
        pattern = banded(512, 4, seed=9)
        spmv = SparseEPStudy(
            machine, pattern, formats=("csr",), threads=(1, 4),
            repeats=2, verify=False,
        ).run()
        spmm = SparseEPStudy(
            machine, pattern, formats=("csr",), threads=(1, 4),
            repeats=2, verify=False, kernel="spmm", k=64,
        ).run()
        spmv_speedup = spmv.time_s("csr", 1) / spmv.time_s("csr", 4)
        spmm_speedup = spmm.time_s("csr", 1) / spmm.time_s("csr", 4)
        assert spmm_speedup > spmv_speedup

    def test_unknown_kernel_rejected(self, machine):
        with pytest.raises(ConfigurationError):
            SparseEPStudy(machine, banded(16, 1), kernel="spgemm")
