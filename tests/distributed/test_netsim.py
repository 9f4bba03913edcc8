"""Discrete-event network simulator: shapes, exactness, bounds."""

import math

import pytest

from repro.distributed import (
    BspSimulator,
    ClusterSpec,
    InterconnectSpec,
    NetworkConfig,
    NetworkSweep,
    Topology,
    broadcast,
    broadcast_events,
    build_events,
    pipelined_broadcast,
    simulate,
    simulate_bsp,
    summa_program,
)
from repro.util.errors import ConfigurationError, ValidationError

#: A deliberately gnarly cluster: multi-hop topology, per-hop latency,
#: and a finite eager threshold so "auto" picks rendezvous for big
#: payloads.  The engines must still agree bit-for-bit.
GNARLY = ClusterSpec(
    interconnect=InterconnectSpec(hop_latency_s=2e-7, eager_threshold_bytes=4096.0),
    topology=Topology("torus2d"),
)


# ---- shape validation ---------------------------------------------------


@pytest.mark.parametrize(
    "algorithm,ranks,c",
    [
        ("summa", 6, 1),  # not a perfect square
        ("summa25d", 9, 2),  # c does not divide ranks
        ("summa15d", 9, 2),  # c does not divide ranks
        ("caps-dist", 10, 1),  # not 7^k
    ],
)
def test_invalid_shapes_rejected(algorithm, ranks, c):
    with pytest.raises(ConfigurationError):
        build_events(ClusterSpec(), algorithm, 256, ranks, NetworkConfig(c=c))


def test_summa25d_requires_square_subgrid():
    # 18 / c=2 = 9 = 3^2 but c=2 does not divide p=3.
    with pytest.raises(ConfigurationError):
        build_events(ClusterSpec(), "summa25d", 256, 18, NetworkConfig(c=2))
    # 50 / c=2 = 25 = 5^2, c=2 does not divide 5 either.
    with pytest.raises(ConfigurationError):
        build_events(ClusterSpec(), "summa25d", 256, 50, NetworkConfig(c=2))


def test_unknown_algorithm_and_engine():
    with pytest.raises(ValidationError):
        build_events(ClusterSpec(), "cannon", 256, 4)
    with pytest.raises(ValidationError):
        simulate(ClusterSpec(), "summa", 256, 4, engine="gpu")


def test_network_config_validation():
    with pytest.raises(ValidationError):
        NetworkConfig(protocol="tcp")
    with pytest.raises(Exception):
        NetworkConfig(chunks=0)
    with pytest.raises(ValidationError):
        NetworkConfig(efficiency=1.5)


def test_infeasible_problem_rejected():
    # 3 n^2 words on one rank blows past the node's DRAM.
    with pytest.raises(ConfigurationError):
        build_events(ClusterSpec(), "summa", 131072, 1)


def test_too_many_nodes_rejected():
    cluster = ClusterSpec(max_nodes=8)
    with pytest.raises(ValueError):
        build_events(cluster, "summa", 256, 16)


# ---- engine exactness ---------------------------------------------------


@pytest.mark.parametrize(
    "algorithm,ranks,cfg",
    [
        ("summa", 9, NetworkConfig()),
        ("summa", 16, NetworkConfig(protocol="rendezvous", chunks=2)),
        ("summa25d", 32, NetworkConfig(c=2, chunks=4)),
        ("summa15d", 12, NetworkConfig(c=2)),
        ("caps-dist", 49, NetworkConfig(protocol="eager", efficiency=0.85)),
    ],
)
def test_engines_agree_exactly(algorithm, ranks, cfg):
    ev = simulate(GNARLY, algorithm, 512, ranks, cfg, "events")
    rk = simulate(GNARLY, algorithm, 512, ranks, cfg, "ranks")
    assert ev.n_events == rk.n_events
    assert ev.total_time_s == rk.total_time_s  # exact, no tolerance
    assert ev.compute_s.tobytes() == rk.compute_s.tobytes()
    assert ev.sent_bytes.tobytes() == rk.sent_bytes.tobytes()
    assert ev.recv_bytes.tobytes() == rk.recv_bytes.tobytes()


def test_flow_conservation_and_floor():
    r = simulate(GNARLY, "summa25d", 1024, 32, NetworkConfig(c=2))
    assert math.fsum(r.sent_bytes) == pytest.approx(math.fsum(r.recv_bytes))
    assert r.total_time_s >= r.compute_time_s
    assert r.floor_bytes > 0.0
    assert r.bound_margin >= 1.0
    assert not r.beats_bound()


def test_single_rank_run_has_no_traffic():
    r = simulate(ClusterSpec(), "summa", 512, 1)
    assert r.max_comm_bytes == 0.0
    assert r.bound_margin == math.inf  # floor is zero below two ranks
    assert not r.beats_bound()
    assert r.total_time_s == r.compute_time_s > 0.0


# ---- closed-form differentials -----------------------------------------


def test_binomial_broadcast_matches_closed_form_exactly():
    flat = ClusterSpec()
    nbytes = 8.0 * 4096
    for p in (2, 3, 8, 13):
        prog = broadcast_events(flat, p, nbytes, NetworkConfig(protocol="eager"))
        expect = broadcast(flat.interconnect, nbytes, p).time_s
        for engine in ("events", "ranks"):
            assert prog.simulate(engine).total_s == expect


def test_pipelined_broadcast_matches_closed_form_exactly():
    flat = ClusterSpec()
    nbytes = 8.0 * 4096
    for p, chunks in ((2, 2), (5, 4), (8, 3)):
        cfg = NetworkConfig(protocol="eager", chunks=chunks)
        prog = broadcast_events(flat, p, nbytes, cfg)
        expect = pipelined_broadcast(flat.interconnect, nbytes, p, chunks).time_s
        for engine in ("events", "ranks"):
            assert prog.simulate(engine).total_s == expect


def test_bsp_lowering_matches_bsp_simulator_exactly():
    cluster = ClusterSpec()
    program = summa_program(cluster, 2048, 4, imbalance=0.3)
    closed = BspSimulator(cluster).run(program)
    for engine in ("events", "ranks"):
        lowered = simulate_bsp(cluster, program, engine)
        assert lowered.total_time_s == closed.total_time_s
        assert lowered.comm_time_s == closed.comm_time_s
        assert lowered.compute_time_s == closed.compute_time_s


# ---- sweeps -------------------------------------------------------------


def test_sweep_validates_bounds_and_reports_curves():
    sweep = NetworkSweep(GNARLY, "summa25d", NetworkConfig(c=2))
    result = sweep.run(1024, [8, 32, 128])
    assert [p for p, _ in result.time_curve()] == [8, 32, 128]
    assert all(m >= 1.0 for _, m in result.margin_curve())
    assert result.violations() == []


def test_traced_simulate_splits_lowering_from_sweep():
    from repro.observability import trace

    with trace.tracing() as tr:
        NetworkSweep(GNARLY, "caps-dist").run(1024, [7, 49])
    spans = tr.spans
    lower = [sp for sp in spans if sp.name == "netsim.lower"]
    sweep = [sp for sp in spans if sp.name == "netsim.events"]
    assert len(lower) == len(sweep) == 2
    for lo, sw in zip(lower, sweep):
        assert lo.attrs["events"] == sw.attrs["events"] > 0
        assert spans[lo.parent].name == spans[sw.parent].name == "cell"
        assert lo.t_end <= sw.t_start


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        NetworkSweep(ClusterSpec(), "cannon")
    with pytest.raises(ValidationError):
        NetworkSweep(ClusterSpec(), "summa", engine="gpu")
    with pytest.raises(Exception):
        NetworkSweep(ClusterSpec()).run(1024, [])
