"""Table and figure-series builders."""

import pytest

from repro.core.report import (
    fig3_slowdown_series,
    fig456_power_series,
    fig7_scaling_series,
    table2_slowdown,
    table3_power,
    table4_ep,
)


@pytest.fixture(scope="module")
def result(small_result):
    return small_result


def test_table2_layout(result):
    t = table2_slowdown(result)
    assert t.headers == ["Avg Slowdown", "128", "256", "Average"]
    names = [row[0] for row in t.rows]
    assert names == ["Strassen", "CAPS"]  # baseline excluded


def test_table2_values_match_accessors(result):
    t = table2_slowdown(result)
    strassen_avg = float(t.rows[0][-1])
    assert strassen_avg == pytest.approx(result.avg_slowdown("strassen"), rel=1e-3)


def test_table3_layout(result):
    t = table3_power(result)
    assert t.headers == ["Num Threads", "1", "2", "Average"]
    assert [row[0] for row in t.rows] == ["OpenBLAS", "Strassen", "CAPS"]


def test_table4_layout(result):
    t = table4_ep(result)
    assert t.headers[0] == "Algorithm"
    assert len(t.rows) == 3


def test_fig3_series(result):
    series = fig3_slowdown_series(result)
    assert "Strassen n=128" in series
    assert "OpenBLAS n=128" not in series  # baseline excluded
    pts = series["CAPS n=256"]
    assert [x for x, _ in pts] == [1.0, 2.0]
    assert all(y > 1.0 for _, y in pts)


def test_fig456_series(result):
    series = fig456_power_series(result, "openblas")
    assert set(series) == {"n=128", "n=256"}
    for pts in series.values():
        watts = [w for _, w in pts]
        assert watts == sorted(watts)  # power rises with threads


def test_fig7_series_includes_threshold(result):
    series = fig7_scaling_series(result)
    assert series["linear threshold"] == [(1.0, 1.0), (2.0, 2.0)]
    assert "OpenBLAS n=128" in series
    for name, pts in series.items():
        if name != "linear threshold":
            assert pts[0][1] == pytest.approx(1.0)


def test_table1_environment(machine):
    from repro.core.report import table1_environment

    table = table1_environment(machine)
    text = table.to_ascii()
    assert "haswell-e3-1225" in text
    assert "PACKAGE, PP0, DRAM" in text
    assert "L3 8 MiB" in text
    assert len(table.rows) == 6
