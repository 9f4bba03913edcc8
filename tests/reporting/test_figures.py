"""Figure builders for the paper's figures."""

import pytest

from repro.reporting.figures import (
    Figure,
    fig1_schematic,
    fig3_figure,
    fig4_figure,
    fig5_figure,
    fig6_figure,
    fig7_figure,
)
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def study(small_result):
    return small_result


def test_fig1_schematic_regions():
    fig = fig1_schematic(max_parallelism=8)
    linear = dict(fig.series_values("linear threshold"))
    ideal = dict(fig.series_values("ideal"))
    superlinear = dict(fig.series_values("superlinear"))
    for p in range(2, 9):
        assert ideal[p] < linear[p] < superlinear[p]
    # All three curves meet at the single-unit baseline.
    assert ideal[1] == linear[1] == superlinear[1] == 1.0


def test_fig1_validation():
    with pytest.raises(ValidationError):
        fig1_schematic(max_parallelism=1)


def test_fig3(study):
    fig = fig3_figure(study)
    assert "Strassen n=128" in fig.series
    assert fig.name == "fig3"
    assert "slowdown" in fig.ylabel


@pytest.mark.parametrize(
    "builder,alg",
    [(fig4_figure, "OpenBLAS"), (fig5_figure, "Strassen"), (fig6_figure, "CAPS")],
)
def test_power_figures(study, builder, alg):
    fig = builder(study)
    assert alg in fig.title
    assert set(fig.series) == {"n=128", "n=256"}


def test_fig7(study):
    fig = fig7_figure(study)
    assert "linear threshold" in fig.series
    assert fig.series["linear threshold"][-1] == (2.0, 2.0)


def test_render_smoke(study):
    out = fig7_figure(study).render(width=40, height=10)
    assert "Fig. 7" in out
    assert "linear threshold" in out


def test_figure_missing_series(study):
    fig = fig3_figure(study)
    with pytest.raises(ValidationError):
        fig.series_values("nope")


def test_empty_figure_rejected():
    with pytest.raises(ValidationError):
        Figure("f", "t", {})


def test_fig2_traversal_schematic():
    from repro.reporting.figures import fig2_traversal

    text = fig2_traversal(depth=2)
    assert "DFS" in text and "BFS" in text
    assert text.count("M1 -> M2") == 2  # one per DFS level
    assert "CUTOFF_DEPTH" in text  # Algorithm 2
    with pytest.raises(ValidationError):
        fig2_traversal(depth=0)
