"""The quiesce+repetition experiment protocol."""

import pytest

from repro.algorithms import BlockedGemm, paper_algorithms
from repro.core.protocol import ExperimentProtocol, TrialStats
from repro.power import MsrFile, Plane, RaplReader
from repro.util.errors import ValidationError


class TestTrialStats:
    def test_from_samples(self):
        stats = TrialStats.from_samples([1.0, 2.0, 3.0])
        assert stats.mean == 2.0
        assert stats.minimum == 1.0 and stats.maximum == 3.0
        assert stats.n == 3
        assert stats.std == pytest.approx((2.0 / 3.0) ** 0.5)

    def test_relative_spread(self):
        assert TrialStats.from_samples([2.0, 2.0]).relative_spread == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            TrialStats.from_samples([])


class TestProtocol:
    @pytest.fixture(scope="class")
    def result(self, machine):
        proto = ExperimentProtocol(machine, repetitions=4, quiesce_s=10.0, seed=3)
        return proto.run([BlockedGemm(machine)], sizes=(128,), threads=(1, 2))

    def test_repetitions_recorded(self, result):
        assert len(result.trials[("openblas", 128, 1)]) == 4

    def test_statistics_have_spread(self, result):
        tstats, wstats = result.cell("openblas", 128, 1)
        assert tstats.std > 0
        assert wstats.std > 0
        assert tstats.relative_spread < 0.05  # but small

    def test_mean_matches_exact_engine(self, result, machine):
        """The noisy mean stays within a percent of the exact value."""
        from repro.sim import Engine

        exact = Engine(machine).run(
            BlockedGemm(machine).build_arena(128, 1).graph, 1
        )
        tstats, _ = result.cell("openblas", 128, 1)
        assert tstats.mean == pytest.approx(exact.elapsed_s, rel=0.02)

    def test_summary_table(self, result):
        table = result.summary_table()
        assert len(table.rows) == 2
        assert "time cv" in table.headers

    def test_missing_cell(self, result):
        with pytest.raises(ValidationError):
            result.cell("openblas", 9999, 1)


def test_paper_algorithms_spread_is_real_but_small(machine):
    """Five quiesced repetitions of each paper algorithm: the noise
    layer gives every cell a spread under 5%."""
    proto = ExperimentProtocol(machine, repetitions=5, quiesce_s=60.0, seed=7)
    result = proto.run(paper_algorithms(machine), sizes=(256,), threads=(1, 4))
    assert len(result.time_stats) == 3 * 2
    for tstats in result.time_stats.values():
        assert tstats.n == 5
        assert 0 < tstats.relative_spread < 0.05
        assert tstats.minimum <= tstats.mean <= tstats.maximum


def test_each_trial_runs_after_its_quiesce(machine):
    """The quiesce idle draws noise too, so the trials must interleave
    with it exactly as a hand-rolled idle-then-simulate loop on the same
    seed does, configuration by configuration."""
    from repro.sim import Engine
    from repro.sim.noise import NoiseModel, NoisyEngine

    alg = BlockedGemm(machine)
    proto = ExperimentProtocol(machine, repetitions=3, quiesce_s=10.0, seed=4)
    result = proto.run([alg], sizes=(128,), threads=(1, 2))
    engine = NoisyEngine(Engine(machine), NoiseModel(), 4)
    for p in (1, 2):
        graph = alg.build_cached(128, p).graph
        expected = []
        for _ in range(3):
            engine.idle_measurement(10.0, label="quiesce")
            expected.append(engine.simulate(graph, p)[0].elapsed_s)
        assert [t.elapsed_s for t in result.trials[("openblas", 128, p)]] == expected


def test_quiesce_feeds_msr_stream(machine):
    """With a quiesce period, the MSR counter history includes the idle
    energy between tests — what the paper's always-on RAPL saw."""
    msr = MsrFile()
    reader = RaplReader(msr)
    proto = ExperimentProtocol(
        machine, repetitions=2, quiesce_s=60.0, seed=1, msr=msr
    )
    proto.run([BlockedGemm(machine)], sizes=(128,), threads=(1,))
    total = reader.energy_joules(Plane.PACKAGE)
    idle_floor = 2 * 60.0 * machine.energy.package_static_w
    assert total > idle_floor  # quiesce idle plus the runs themselves


def test_protocol_validation(machine):
    with pytest.raises(Exception):
        ExperimentProtocol(machine, repetitions=0)
    proto = ExperimentProtocol(machine, repetitions=1)
    with pytest.raises(ValidationError):
        proto.run([], sizes=(128,), threads=(1,))
