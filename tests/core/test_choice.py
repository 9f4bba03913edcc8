"""Algorithmic choice under power constraints."""

import pytest

from repro.core.choice import (
    Configuration,
    choice_table,
    configurations,
    energy_delay_product,
    energy_to_solution,
    pareto_frontier,
    select_under_power_cap,
)
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def result(paper_result):
    """The session's paper study; these tests read its n=512 cells."""
    return paper_result


class TestConfiguration:
    def _cfg(self, t, w):
        return Configuration("a", 1, t, w, w + 5, t * w)

    def test_dominates(self):
        fast_cool = self._cfg(1.0, 10.0)
        slow_hot = self._cfg(2.0, 20.0)
        assert fast_cool.dominates(slow_hot)
        assert not slow_hot.dominates(fast_cool)

    def test_no_self_domination(self):
        c = self._cfg(1.0, 10.0)
        assert not c.dominates(c)

    def test_incomparable(self):
        fast_hot = self._cfg(1.0, 30.0)
        slow_cool = self._cfg(3.0, 10.0)
        assert not fast_hot.dominates(slow_cool)
        assert not slow_cool.dominates(fast_hot)

    def test_power_metric(self):
        c = self._cfg(1.0, 10.0)
        assert c.power("avg") == 10.0
        assert c.power("peak") == 15.0
        with pytest.raises(ValidationError):
            c.power("rms")

    def test_edp(self):
        assert self._cfg(2.0, 10.0).edp == pytest.approx(40.0)


class TestFrontier:
    def test_all_configurations_enumerated(self, result):
        cfgs = configurations(result, 512)
        assert len(cfgs) == 3 * 4

    def test_frontier_nonempty_and_subset(self, result):
        frontier = pareto_frontier(result, 512)
        assert 1 <= len(frontier) <= 12
        all_keys = {(c.algorithm, c.threads) for c in configurations(result, 512)}
        assert all((c.algorithm, c.threads) in all_keys for c in frontier)

    def test_frontier_mutually_nondominated(self, result):
        frontier = pareto_frontier(result, 512)
        for a in frontier:
            for b in frontier:
                assert not a.dominates(b)

    def test_fastest_point_on_frontier(self, result):
        """The globally fastest configuration can't be dominated."""
        frontier = pareto_frontier(result, 512)
        fastest = min(configurations(result, 512), key=lambda c: c.time_s)
        assert any(
            c.algorithm == fastest.algorithm and c.threads == fastest.threads
            for c in frontier
        )

    def test_openblas_4t_is_fastest_point(self, result):
        frontier = pareto_frontier(result, 512)
        assert frontier[0].algorithm == "openblas"
        assert frontier[0].threads == 4


class TestPowerCap:
    def test_generous_cap_picks_fastest(self, result):
        pick = select_under_power_cap(result, 512, 1000.0)
        assert pick.algorithm == "openblas" and pick.threads == 4

    def test_tight_cap_changes_choice(self, result):
        """The paper's §VI-D scenario: under a facility cap, OpenBLAS's
        peak parallelism 'cannot be realized due to a lack of available
        power' and the choice shifts."""
        unconstrained = select_under_power_cap(result, 512, 1000.0)
        # Cap just below the unconstrained pick's peak power.
        cap = unconstrained.peak_power_w - 1.0
        constrained = select_under_power_cap(result, 512, cap)
        assert constrained is not None
        assert (constrained.algorithm, constrained.threads) != (
            unconstrained.algorithm,
            unconstrained.threads,
        )
        assert constrained.peak_power_w <= cap

    def test_impossible_cap_returns_none(self, result):
        assert select_under_power_cap(result, 512, 1.0) is None

    def test_avg_metric(self, result):
        pick = select_under_power_cap(result, 512, 25.0, metric="avg")
        assert pick is not None
        assert pick.avg_power_w <= 25.0

    def test_cap_validation(self, result):
        with pytest.raises(ValidationError):
            select_under_power_cap(result, 512, 0.0)


class TestMetrics:
    def test_energy_to_solution_keys(self, result):
        ets = energy_to_solution(result, 512)
        assert len(ets) == 12
        assert all(v > 0 for v in ets.values())

    def test_edp_consistent(self, result):
        edp = energy_delay_product(result, 512)
        ets = energy_to_solution(result, 512)
        for key, value in edp.items():
            alg, p = key
            t = result.time_s(alg, 512, p)
            assert value == pytest.approx(ets[key] * t)

    def test_choice_table(self, result):
        table = choice_table(result, 512)
        assert len(table.rows) == 12
        assert table.rows[0][-1] == "*"  # fastest row is Pareto-optimal
        # Rows sorted by time.
        times = [float(r[2]) for r in table.rows]
        assert times == sorted(times)
