"""Distributed EP study."""

import pytest

from repro.distributed.dmatmul import CapsDistributed, Summa25D, Summa2D
from repro.distributed.network import ClusterSpec
from repro.distributed.study import DistributedEPStudy
from repro.power.planes import Plane
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def result():
    cl = ClusterSpec()
    study = DistributedEPStudy(
        cl,
        [Summa2D(cl), Summa25D(cl, c=4), CapsDistributed(cl)],
        node_counts=(1, 4, 16, 64, 256),
    )
    return study.run(8192)


def test_all_runs_present(result):
    assert len(result.runs) == 3 * 5


def test_time_falls_with_nodes(result):
    for alg in result.algorithm_names:
        times = [t for _, t in result.time_curve(alg)]
        assert times == sorted(times, reverse=True)


def test_caps_faster_than_summa(result):
    """Strassen flops at the Eq. 8 bound win at every scale, against 2D
    and 2.5D SUMMA alike."""
    for nodes in result.node_counts:
        caps = result.run_for("caps-dist", nodes).time_s
        assert caps < result.run_for("summa", nodes).time_s
        assert caps < result.run_for("summa25d", nodes).time_s


def test_replication_cuts_summa_link_traffic(result):
    """2.5D SUMMA moves fewer link bytes than 2D wherever it can
    replicate."""
    for nodes in result.node_counts[1:]:
        assert (
            result.run_for("summa25d", nodes).profile.comm.link_bytes
            < result.run_for("summa", nodes).profile.comm.link_bytes
        )


def test_interconnect_plane_present(result):
    run = result.run_for("summa", 16)
    assert run.planes_w[Plane.PSYS] > 0
    assert run.planes_w[Plane.PACKAGE] > run.planes_w[Plane.PSYS]


def test_rank_power_sums_independent_planes(result):
    run = result.run_for("summa", 4)
    assert run.rank_power_w == pytest.approx(
        run.planes_w[Plane.PACKAGE]
        + run.planes_w[Plane.DRAM]
        + run.planes_w[Plane.PSYS]
    )
    assert run.cluster_power_w == pytest.approx(4 * run.rank_power_w)


def test_ep_uses_eq4(result):
    """One rank's EP equals its plane-sum watts over its time."""
    run = result.run_for("caps-dist", 1)
    assert run.ep() == pytest.approx(run.rank_power_w / run.time_s)


def test_scaling_curve(result):
    pts = result.scaling_curve("summa")
    assert pts[0].s == 1.0
    ss = [p.s for p in pts]
    assert ss == sorted(ss)


def test_comm_fraction_curve_monotone(result):
    for alg in result.algorithm_names:
        fracs = [f for _, f in result.comm_fraction_curve(alg)]
        assert fracs == sorted(fracs)


def test_missing_run(result):
    with pytest.raises(ValidationError):
        result.run_for("summa", 999)


def test_scaling_requires_single_node_baseline():
    cl = ClusterSpec()
    study = DistributedEPStudy(cl, [Summa2D(cl)], node_counts=(4, 16))
    res = study.run(8192)
    with pytest.raises(ValidationError):
        res.scaling_curve("summa")


class TestWeakScaling:
    @pytest.fixture(scope="class")
    def cluster(self):
        return ClusterSpec()

    def test_work_mode_sizes(self, cluster):
        study = DistributedEPStudy(cluster, [Summa2D(cluster)], node_counts=(1, 8, 64))
        res = study.run_weak(4096, mode="work")
        assert res.is_weak_scaling
        assert res.weak_sizes[1] == 4096
        assert res.weak_sizes[8] == pytest.approx(4096 * 2, abs=2)
        assert res.weak_sizes[64] == pytest.approx(4096 * 4, abs=4)

    def test_memory_mode_sizes(self, cluster):
        study = DistributedEPStudy(cluster, [Summa2D(cluster)], node_counts=(1, 4))
        res = study.run_weak(4096, mode="memory")
        assert res.weak_sizes[4] == 8192

    def test_work_mode_efficiency(self, cluster):
        """Constant classical work per node: SUMMA's compute time stays
        flat and only communication erodes efficiency; CAPS's n^2.81
        flop growth actually leaves it *above* 1.0 — Strassen's
        weak-scaling dividend."""
        study = DistributedEPStudy(
            cluster, [Summa2D(cluster), CapsDistributed(cluster)],
            node_counts=(1, 8, 64),
        )
        res = study.run_weak(2048, mode="work")
        summa = dict(res.efficiency_curve("summa"))
        caps = dict(res.efficiency_curve("caps-dist"))
        assert summa[1] == pytest.approx(1.0)
        assert 0.8 < summa[64] < summa[8] <= 1.01  # comm erosion only
        assert caps[8] > 1.0 and caps[64] > caps[8]  # sub-cubic flops
        assert caps[64] > summa[64]

    def test_strong_scaling_result_is_not_weak(self, cluster):
        study = DistributedEPStudy(cluster, [Summa2D(cluster)], node_counts=(1, 4))
        assert not study.run(4096).is_weak_scaling

    def test_bad_mode_rejected(self, cluster):
        study = DistributedEPStudy(cluster, [Summa2D(cluster)], node_counts=(1,))
        with pytest.raises(ValidationError):
            study.run_weak(1024, mode="hyper")
