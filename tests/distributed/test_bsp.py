"""BSP superstep simulation."""

import pytest

from repro.distributed.bsp import (
    BspSimulator,
    Superstep,
    caps_program,
    summa_program,
)
from repro.distributed.network import ClusterSpec
from repro.power.planes import Plane
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec()


@pytest.fixture(scope="module")
def sim(cluster):
    return BspSimulator(cluster)


class TestSuperstep:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            Superstep("s", (1.0, 2.0), (0.0,))

    def test_negative_rejected(self):
        with pytest.raises(Exception):
            Superstep("s", (-1.0,), (0.0,))


class TestSimulator:
    def test_balanced_program_no_idle(self, sim):
        program = [Superstep("s", (0.1, 0.1), (1e6, 1e6))]
        result = sim.run(program)
        assert result.max_idle_fraction == 0.0
        assert result.total_time_s > 0.1  # compute + comm + barrier

    def test_straggler_creates_idle(self, sim):
        program = [Superstep("s", (0.1, 0.2), (0.0, 0.0))]
        result = sim.run(program)
        assert result.idle_time_s[0] == pytest.approx(0.1)
        assert result.idle_time_s[1] == 0.0
        assert result.total_time_s >= 0.2

    def test_h_relation_cost(self, cluster, sim):
        bw = cluster.interconnect.bandwidth_bytes_per_s
        program = [Superstep("s", (0.0, 0.0), (bw, bw / 2))]  # h = bw bytes
        result = sim.run(program)
        assert result.comm_time_s == pytest.approx(1.0, rel=0.01)

    def test_supersteps_accumulate(self, sim):
        one = sim.run([Superstep("a", (0.1,), (0.0,))])
        two = sim.run([Superstep("a", (0.1,), (0.0,)), Superstep("b", (0.1,), (0.0,))])
        assert two.total_time_s == pytest.approx(2 * one.total_time_s, rel=0.05)

    def test_rank_count_consistency_enforced(self, sim):
        with pytest.raises(ValidationError):
            sim.run([Superstep("a", (0.1,), (0.0,)), Superstep("b", (0.1, 0.1), (0.0, 0.0))])

    def test_energy_planes_present(self, sim):
        result = sim.run([Superstep("s", (0.1, 0.1), (1e6, 1e6))])
        for e in result.rank_energy_j:
            assert e[Plane.PACKAGE] > 0
            assert e[Plane.PSYS] > 0

    def test_idle_rank_still_burns_static_power(self, sim):
        """The Eq. 2 max semantics in action: the fast rank waits at the
        barrier burning static+link power."""
        program = [Superstep("s", (0.0, 0.5), (0.0, 0.0))]
        result = sim.run(program)
        fast, slow = result.rank_energy_j
        assert fast[Plane.PACKAGE] > 0  # static power over the whole step
        assert slow[Plane.PACKAGE] > fast[Plane.PACKAGE]


class TestPrograms:
    def test_summa_program_shape(self, cluster):
        program = summa_program(cluster, 8192, 16)
        assert len(program) == 4  # sqrt(16) supersteps
        assert all(s.ranks == 16 for s in program)

    def test_caps_program_shape(self, cluster):
        program = caps_program(cluster, 8192, 49)
        assert program[-1].name == "caps-local"
        assert len(program) == 3  # ceil(log7 49) = 2 BFS + local

    def test_caps_beats_summa_balanced(self, cluster, sim):
        rs = sim.run(summa_program(cluster, 8192, 16))
        rc = sim.run(caps_program(cluster, 8192, 16))
        assert rc.total_time_s < rs.total_time_s

    def test_imbalance_costs_time_and_ep(self, cluster, sim):
        """Stragglers stretch the run and drag the EP ratio — the
        quantitative version of Eq. 2's max-over-units — and CAPS stays
        ahead of SUMMA at every imbalance."""
        runs = {
            (program, imb): sim.run(program(cluster, 8192, 16, imbalance=imb))
            for program in (summa_program, caps_program)
            for imb in (0.0, 0.1, 0.3)
        }
        for program in (summa_program, caps_program):
            balanced, skewed = runs[(program, 0.0)], runs[(program, 0.3)]
            assert skewed.total_time_s > balanced.total_time_s
            assert skewed.max_idle_fraction > 0.2
            assert skewed.ep() < balanced.ep()
        for imb in (0.0, 0.1, 0.3):
            caps, summa = runs[(caps_program, imb)], runs[(summa_program, imb)]
            assert caps.total_time_s < summa.total_time_s

    def test_imbalance_deterministic(self, cluster, sim):
        a = sim.run(summa_program(cluster, 4096, 8, imbalance=0.2))
        b = sim.run(summa_program(cluster, 4096, 8, imbalance=0.2))
        assert a.total_time_s == b.total_time_s

    def test_single_rank_program(self, cluster, sim):
        result = sim.run(caps_program(cluster, 2048, 1))
        assert result.ranks == 1
        assert result.max_idle_fraction == 0.0
