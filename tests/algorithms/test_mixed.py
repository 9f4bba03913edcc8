"""Block LU: the mixed sequential-parallel workload and Eq. 2."""

import numpy as np
import pytest

from repro.algorithms.mixed import BlockLU, mixed_ep
from repro.sim import Engine
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def lu(machine):
    return BlockLU(machine, block=64)


class TestNumerics:
    def test_factorization_correct(self, lu, run_numerics):
        build = lu.build(256, threads=4)
        run_numerics(build, 4)
        assert build.verify() < 1e-10

    def test_single_block_case(self, lu, run_numerics):
        build = lu.build(64, threads=1)
        run_numerics(build, 1)
        assert build.verify() < 1e-12

    def test_lu_reconstruction_shape(self, lu, run_numerics):
        build = lu.build(128, threads=2)
        run_numerics(build, 2)
        lower = np.tril(build.lu, -1) + np.eye(128)
        upper = np.triu(build.lu)
        assert np.allclose(lower @ upper, build.original, atol=1e-6 * 128)

    def test_block_divisibility_enforced(self, lu):
        with pytest.raises(ValidationError):
            lu.build(100, threads=1, execute=False)

    def test_cost_only_build(self, lu):
        build = lu.build(256, threads=2, execute=False)
        assert build.cost_only
        with pytest.raises(ValidationError):
            build.verify()


class TestStructure:
    def test_panels_serialize(self, machine, lu):
        """Each step's panel depends (transitively) on the previous
        step's join — panels can never overlap."""
        from repro.runtime.scheduler import Scheduler

        build = lu.build(256, threads=4, execute=False)
        sched = Scheduler(machine, threads=4).run(build.graph)
        panels = sorted(
            (r for r in sched.records if r.name.startswith("seq-panel")),
            key=lambda r: r.start,
        )
        assert len(panels) == 4
        for a, b in zip(panels, panels[1:]):
            assert b.start >= a.end - 1e-12

    def test_task_kinds_present(self, lu):
        build = lu.build(256, threads=2, execute=False)
        counts = build.graph.counts_by_prefix()
        assert counts["seq-panel"] == 4
        assert any(k.startswith("par-update") for k in counts)
        assert any(k.startswith("solves") for k in counts)

    def test_update_dominates_flops(self, lu):
        """The parallel trailing updates carry most of the arithmetic —
        LU's Amdahl structure."""
        graph = lu.build(512, threads=4, execute=False).graph
        flops = graph.flops.tolist()
        total = sum(flops)
        seq = sum(
            f for f, name in zip(flops, graph.names_list()) if name.startswith("seq-")
        )
        assert seq / total < 0.1


class TestEq2:
    def test_mixed_ep_positive(self, lu):
        report = mixed_ep(lu, 512, threads=4)
        assert report.ep_t > 0
        assert 0 < report.sequential_fraction < 1

    def test_serial_fraction_grows_with_threads(self, lu):
        """Amdahl: the parallel part shrinks with threads, the serial
        part doesn't — its share of the runtime grows."""
        f1 = mixed_ep(lu, 512, threads=1).sequential_fraction
        f4 = mixed_ep(lu, 512, threads=4).sequential_fraction
        assert f4 > f1

    def test_amdahl_sweep(self, machine):
        """Over p = 1..4 at n=1024 the serial share grows while the
        serial panels' own time stays put, and EP_t grows sub-linearly
        against the parallel part's power growth."""
        lu = BlockLU(machine, block=128)
        reports = [mixed_ep(lu, 1024, p) for p in (1, 2, 3, 4)]
        fracs = [r.sequential_fraction for r in reports]
        assert fracs == sorted(fracs)
        t_seq = [r.sequential.elapsed_s for r in reports]
        assert max(t_seq) / min(t_seq) < 1.02
        one, four = reports[0], reports[-1]
        power_growth = four.parallel.avg_power_w() / one.parallel.avg_power_w()
        assert 1.0 < four.ep_t / one.ep_t < 4 * power_growth

    def test_eq2_matches_manual_computation(self, lu):
        report = mixed_ep(lu, 256, threads=2)
        seq, par = report.sequential, report.parallel
        expected = (seq.avg_power_w() + par.avg_power_w()) / (
            seq.elapsed_s + par.elapsed_s
        )
        assert report.ep_t == pytest.approx(expected)

    def test_energy_convention(self, lu):
        report = mixed_ep(lu, 256, threads=2, convention="energy")
        seq, par = report.sequential, report.parallel
        expected = (seq.energy.package + par.energy.package) / (
            seq.elapsed_s + par.elapsed_s
        )
        assert report.ep_t == pytest.approx(expected)

    def test_mixed_scaling_below_pure_parallel(self, machine, lu):
        """The sequential panels damp EP_t scaling versus a pure
        parallel workload's (Amdahl on the EP ratio)."""
        from repro.algorithms import BlockedGemm
        from repro.core.ep import EPMeasurement

        eng = Engine(machine)
        lu_s = mixed_ep(lu, 512, 4).ep_t / mixed_ep(lu, 512, 1).ep_t

        gemm = BlockedGemm(machine)
        meas = {}
        for p in (1, 4):
            b = gemm.build_arena(512, threads=p)
            meas[p] = EPMeasurement(eng.run(b.graph, p)).ep
        gemm_s = meas[4] / meas[1]
        assert lu_s < gemm_s

    def test_summary(self, lu):
        text = mixed_ep(lu, 256, threads=2).summary()
        assert "EP_t" in text and "serial fraction" in text
