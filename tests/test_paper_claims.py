"""The paper's claims, asserted at the paper's execution matrix.

The only home of the §VI results (Tables II-IV, Figs. 3-7), the
power-capped choice of §I/§VI-D, the Eq. 8 CAPS bound and the Eq. 9
crossover.  The §VI claims read the session's ``paper_result``: the
three paper algorithms x n in {512, 1024, 2048, 4096} x p in 1..4,
cost-only on the platform's default engine.  Numerics stay out: a
cell's times and energies are the same whether its product ran, and
``tests/algorithms/test_numerics_golden.py`` pins the products.

The simulator is calibrated, not the authors' testbed, so the claims
are orderings, factors and scaling classes, not absolute joules;
EXPERIMENTS.md records the measured values next to the paper's
(``python tools/make_experiments_report.py`` regenerates them).
"""

import pytest

from repro.core.bounds import (
    bound_crossover_memory,
    caps_bandwidth_bound,
    classical_bandwidth_bound,
)
from repro.core.choice import pareto_frontier, select_under_power_cap
from repro.core.crossover import analyze_crossover, crossover_dimension
from repro.core.report import (
    fig3_slowdown_series,
    fig456_power_series,
    table2_slowdown,
    table3_power,
    table4_ep,
)
from repro.core.scaling import ScalingClass
from repro.machine import generic_smp
from repro.util.units import GiB


@pytest.fixture(scope="module")
def threads(paper_result):
    return sorted(paper_result.config.threads)


def test_table2_strassen_family_roughly_3x_slower(paper_result):
    """Table II: the Strassen family is ~3x slower than OpenBLAS on
    average (paper 2.965x / 2.788x)."""
    assert 2.0 < paper_result.avg_slowdown("strassen") < 4.5
    assert 2.0 < paper_result.avg_slowdown("caps") < 4.0


def test_table2_caps_faster_than_strassen_on_average(paper_result):
    """Table II: CAPS beats classic Strassen (paper: 5.97%)."""
    assert paper_result.avg_slowdown("caps") < paper_result.avg_slowdown("strassen")


def test_fig3_openblas_fastest_in_every_cell(paper_result):
    """Fig. 3: every Strassen and CAPS point sits above slowdown 1."""
    series = fig3_slowdown_series(paper_result)
    assert len(series) == 2 * len(paper_result.config.sizes)
    for pts in series.values():
        assert all(y > 1.0 for _, y in pts)


def _avg_power(paper_result):
    return tuple(
        paper_result.avg_power_by_threads(alg)
        for alg in ("openblas", "strassen", "caps")
    )


def test_table3_openblas_highest_power_at_full_threads(paper_result, threads):
    """Table III: OpenBLAS draws the most from two threads up, and at
    full threads it leads at every size, not only on average."""
    ob, st, ca = _avg_power(paper_result)
    for p in threads[1:]:
        assert ob[p] > st[p] and ob[p] > ca[p]
    pmax = threads[-1]
    for n in paper_result.config.sizes:
        top = paper_result.power_w("openblas", n, pmax)
        assert top > paper_result.power_w("strassen", n, pmax)
        assert top > paper_result.power_w("caps", n, pmax)


def test_table3_strassen_family_power_flatter(paper_result, threads):
    """Table III: OpenBLAS's watts grow over twice as much from one to
    full threads as Strassen's or CAPS's."""
    ob, st, ca = _avg_power(paper_result)
    pmax = threads[-1]
    for flat in (st, ca):
        assert ob[pmax] - ob[1] > 2 * (flat[pmax] - flat[1])


def test_table3_caps_lowest_power_at_one_thread(paper_result):
    """Table III: CAPS's one-thread average is the lowest row."""
    ob, st, ca = _avg_power(paper_result)
    assert ca[1] <= st[1] and ca[1] <= ob[1] * 1.05


def test_table3_power_envelope(paper_result):
    """Table III: every average sits in the paper's observed 17-57 W
    envelope."""
    for watts in _avg_power(paper_result):
        assert all(15.0 < w < 60.0 for w in watts.values())


def test_table4_ordering(paper_result):
    """Table IV: OpenBLAS's EP far above the Strassen family, and CAPS
    at or above Strassen, at every size."""
    ob, st, ca = (
        paper_result.avg_ep_by_size(alg) for alg in ("openblas", "strassen", "caps")
    )
    for n in paper_result.config.sizes:
        assert ob[n] > 2 * max(st[n], ca[n])
        assert ca[n] >= st[n] * 0.9


def test_table4_ep_falls_steeply_with_size(paper_result):
    """Table IV: EP falls with n (runtime grows ~n^3 while watts stay
    bounded): each doubling of n divides it by more than 4."""
    sizes = sorted(paper_result.config.sizes)
    for alg in paper_result.algorithm_names:
        by_size = paper_result.avg_ep_by_size(alg)
        for small, big in zip(sizes, sizes[1:]):
            assert by_size[small] > 4 * by_size[big]


def test_tables_render(paper_result):
    """Tables II-IV render at the paper's matrix."""
    for table in (
        table2_slowdown(paper_result),
        table3_power(paper_result),
        table4_ep(paper_result),
    ):
        assert len(table.to_ascii().splitlines()) >= 3


def test_fig4_openblas_power(paper_result, threads):
    """Fig. 4: OpenBLAS watts rise with every thread, and four threads
    draw over twice the single-thread package power (paper 20.2 ->
    49.1 W), at every size."""
    for pts in fig456_power_series(paper_result, "openblas").values():
        watts = dict(pts)
        ordered = [watts[p] for p in threads]
        assert ordered == sorted(ordered)
        assert ordered[-1] > 2.0 * ordered[0]


def test_fig5_strassen_power(paper_result, threads):
    """Fig. 5: Strassen's power scaling is "sub linear across all
    problem sizes and all parallel thread counts": each curve is
    concave and ends far below proportional growth."""
    for pts in fig456_power_series(paper_result, "strassen").values():
        watts = dict(pts)
        first_step = watts[threads[1]] - watts[threads[0]]
        last_step = watts[threads[-1]] - watts[threads[-2]]
        assert last_step < first_step
        assert watts[threads[-1]] < watts[threads[0]] * threads[-1] / threads[0]


def test_fig6_caps_power(paper_result, threads):
    """Fig. 6: CAPS is sub-linear everywhere, below Strassen at one
    thread and at or above it at the top thread count (§VI-C)."""
    for pts in fig456_power_series(paper_result, "caps").values():
        watts = dict(pts)
        assert watts[threads[-1]] < watts[threads[0]] * threads[-1] / threads[0]
    caps = paper_result.avg_power_by_threads("caps")
    strassen = paper_result.avg_power_by_threads("strassen")
    assert caps[1] <= strassen[1]
    assert caps[threads[-1]] >= strassen[threads[-1]] - 0.5


def _fig7_last(paper_result, alg):
    """The full-thread point of each size's Fig. 7 curve for ``alg``."""
    return [
        paper_result.scaling_curve(alg, n)[-1] for n in paper_result.config.sizes
    ]


def test_fig7_curves_start_at_one(paper_result):
    """Fig. 7: every curve is normalised to S = 1 at one thread."""
    for alg in paper_result.algorithm_names:
        for n in paper_result.config.sizes:
            assert paper_result.scaling_curve(alg, n)[0].s == 1.0


def test_fig7_openblas_superlinear(paper_result, threads):
    """Fig. 7: OpenBLAS falls "well beyond the linear scale"."""
    for last in _fig7_last(paper_result, "openblas"):
        assert last.scaling_class is ScalingClass.SUPERLINEAR
        assert last.s > 1.5 * threads[-1]


def test_fig7_strassen_at_or_below_linear(paper_result, threads):
    """Fig. 7: Strassen ends at or below the linear scale."""
    for last in _fig7_last(paper_result, "strassen"):
        assert last.s <= threads[-1] * 1.05


def test_fig7_caps_closer_to_linear_than_strassen(paper_result):
    """Fig. 7: "our CAPS implementation is slightly closer to the
    linear scale than the classic Strassen implementation"."""
    pairs = zip(
        _fig7_last(paper_result, "caps"), _fig7_last(paper_result, "strassen")
    )
    for caps, strassen in pairs:
        assert abs(caps.distance_to_linear) <= abs(strassen.distance_to_linear)


def test_choice_under_power_caps(paper_result, threads):
    """§I/§VI-D at the largest size: the fastest point is OpenBLAS at
    full threads, the coolest runs one thread at least 2x slower, and a
    tightening power cap moves the pick off OpenBLAS at full threads
    while its runtime never falls."""
    n = max(paper_result.config.sizes)
    frontier = pareto_frontier(paper_result, n)
    assert (frontier[0].algorithm, frontier[0].threads) == ("openblas", threads[-1])
    coolest = min(frontier, key=lambda c: c.avg_power_w)
    assert coolest.threads == 1
    assert coolest.time_s > 2 * frontier[0].time_s

    picks = [
        select_under_power_cap(paper_result, n, cap, "peak")
        for cap in (200.0, 45.0, 35.0, 25.0)
    ]
    assert picks[0] is not None and picks[0].algorithm == "openblas"
    feasible = [p for p in picks if p is not None]
    times = [p.time_s for p in feasible]
    assert times == sorted(times)
    tight = feasible[-1]
    assert (tight.algorithm, tight.threads) != (picks[0].algorithm, picks[0].threads)


@pytest.mark.parametrize("n", [4096, 16384])
@pytest.mark.parametrize("p", [16, 256])
@pytest.mark.parametrize("m", [2**18, 2**24])
def test_eq8_caps_bound_at_or_below_classical(n, p, m):
    """§IV-C: a Strassen-like algorithm (omega0 = log2 7) needs to move
    no more words than the classical bound, in either regime."""
    caps = caps_bandwidth_bound(n, p, m)
    assert caps <= classical_bandwidth_bound(n, p, m) * 1.0000001


def test_eq8_memory_trade():
    """More local memory cuts CAPS's communication until the
    memory-independent term binds: the BFS buffer trade."""
    n, p = 16384, 64
    m_star = bound_crossover_memory(n, p)
    at = caps_bandwidth_bound(n, p, m_star)
    assert caps_bandwidth_bound(n, p, m_star / 4) > at
    assert caps_bandwidth_bound(n, p, m_star * 4) == at


def test_paper_platform_cannot_reach_crossover(machine):
    """§VI-B: "we were unable to execute problems large enough to
    realize the crossover point" — the Eq. 9 crossover n = 480*y/z
    exceeds what 4 GB can hold."""
    analysis = analyze_crossover(machine)
    assert not analysis.reachable
    assert analysis.crossover_n > analysis.max_feasible_n
    assert analysis.crossover_n == crossover_dimension(
        analysis.y_mflops, analysis.z_mbs
    )
    # y ~ 188 Gflop/s = 188416 Mflop/s, z ~ 10240 MB/s -> n ~ 8800.
    assert analysis.crossover_n == pytest.approx(480 * 188416 / 10240, rel=0.05)


def test_eq9_channel_sweep_halves_crossover():
    """Eq. 9 is linear in 1/z: each doubling of the memory channels
    (and so of z) halves the crossover dimension."""
    crossovers = [
        analyze_crossover(
            generic_smp(
                cores=4, frequency_hz=3.2e9, dram_channels=channels,
                dram_capacity_bytes=512 * GiB,
            )
        ).crossover_n
        for channels in (1, 2, 4, 8)
    ]
    for wide, wider in zip(crossovers, crossovers[1:]):
        assert wide == 2 * wider
