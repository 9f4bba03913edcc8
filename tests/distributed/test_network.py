"""Interconnect and cluster specs."""

import math

import numpy as np
import pytest

from repro.distributed.network import ClusterSpec, InterconnectSpec, Topology
from repro.util.errors import ValidationError


def test_alpha_beta_transfer_time():
    net = InterconnectSpec(latency_s=1e-6, bandwidth_bytes_per_s=1e9)
    assert net.transfer_time_s(1e9) == pytest.approx(1.0 + 1e-6)
    assert net.transfer_time_s(1e9, messages=10) == pytest.approx(1.0 + 1e-5)


def test_zero_bytes_costs_latency_only():
    net = InterconnectSpec(latency_s=2e-6)
    assert net.transfer_time_s(0) == pytest.approx(2e-6)


def test_transfer_energy():
    net = InterconnectSpec(j_per_byte=1e-9)
    assert net.transfer_energy_j(1e9) == pytest.approx(1.0)


def test_cluster_defaults_use_haswell_node():
    cl = ClusterSpec()
    assert cl.node.cores == 4
    assert cl.node_memory_words() == pytest.approx(4 * 2**30 / 8)


def test_cluster_node_limit():
    cl = ClusterSpec(max_nodes=8)
    assert cl.validate_nodes(8) == 8
    with pytest.raises(ValueError):
        cl.validate_nodes(9)


def test_validation():
    with pytest.raises(Exception):
        InterconnectSpec(bandwidth_bytes_per_s=0)
    with pytest.raises(Exception):
        InterconnectSpec(latency_s=-1)


# ---- topology hop counts (netsim extension) -----------------------------


def test_flat_topology_is_one_hop():
    t = Topology("flat")
    assert t.contention_free
    assert t.hops(0, 63, 64) == 1
    assert t.hops(5, 5, 64) == 0  # self-distance is free


def test_ring_takes_shortest_way_around():
    t = Topology("ring")
    assert not t.contention_free
    assert t.hops(0, 1, 8) == 1
    assert t.hops(0, 4, 8) == 4
    assert t.hops(0, 7, 8) == 1  # wraparound
    assert t.hops(1, 6, 8) == 3


def test_torus2d_manhattan_with_wraparound():
    t = Topology("torus2d")
    # 16 ranks factor to a 4x4 grid.
    assert t.hops(0, 1, 16) == 1  # same row
    assert t.hops(0, 4, 16) == 1  # same column
    assert t.hops(0, 5, 16) == 2  # diagonal
    assert t.hops(0, 15, 16) == 2  # both axes wrap
    assert t.hops(0, 10, 16) == 4  # grid centre


def test_hypercube_popcount_distance():
    t = Topology("hypercube")
    assert t.hops(0, 7, 8) == 3  # 0b000 -> 0b111
    assert t.hops(3, 5, 8) == 2  # 0b011 -> 0b101
    assert t.hops(6, 6, 8) == 0


def test_hops_vectorized_matches_scalar():
    t = Topology("ring")
    src = np.zeros(8, dtype=np.int64)
    dst = np.arange(8, dtype=np.int64)
    got = t.hops(src, dst, 8)
    assert got.tolist() == [t.hops(0, int(d), 8).item() for d in dst]


def test_topology_validation():
    with pytest.raises(Exception):
        Topology("mesh3d")
    with pytest.raises(Exception):
        Topology("ring").hops(0, 8, 8)  # rank out of range
    with pytest.raises(Exception):
        Topology("ring").hops(-1, 0, 8)


# ---- per-hop pricing and protocol resolution ----------------------------


def test_message_time_charges_extra_hops():
    net = InterconnectSpec(
        latency_s=1e-6, bandwidth_bytes_per_s=1e9, hop_latency_s=1e-7
    )
    one = net.message_time_s(1000.0, hops=1)
    three = net.message_time_s(1000.0, hops=3)
    assert three == pytest.approx(one + 2e-7)
    # With zero hop latency (the default) distance is free, so the
    # event simulator collapses to the flat alpha-beta model.
    flat = InterconnectSpec(latency_s=1e-6, bandwidth_bytes_per_s=1e9)
    assert flat.message_time_s(1000.0, hops=5) == flat.transfer_time_s(1000.0)


def test_single_hop_eager_message_is_bit_identical_to_transfer():
    net = InterconnectSpec()
    for nbytes in (0.0, 1.0, 8.0 * 4096, 1e9):
        assert net.message_time_s(nbytes) == net.transfer_time_s(nbytes)


def test_rendezvous_pays_latency_twice():
    net = InterconnectSpec(latency_s=1e-6, bandwidth_bytes_per_s=1e9)
    eager = net.message_time_s(1000.0)
    rdv = net.message_time_s(1000.0, rendezvous=True)
    assert rdv == pytest.approx(eager + 1e-6)


def test_zero_byte_message_costs_latency_only():
    net = InterconnectSpec(latency_s=2e-6, hop_latency_s=1e-7)
    assert net.message_time_s(0.0, hops=4) == pytest.approx(2e-6 + 3e-7)


def test_protocol_resolution():
    net = InterconnectSpec(eager_threshold_bytes=1024.0)
    assert not net.is_rendezvous(1024.0)  # at the threshold: eager
    assert net.is_rendezvous(1025.0)  # above: rendezvous
    assert not net.is_rendezvous(1e9, protocol="eager")  # forced
    assert net.is_rendezvous(1.0, protocol="rendezvous")  # forced
    with pytest.raises(Exception):
        net.is_rendezvous(1.0, protocol="tcp")
    # Default threshold is infinite: everything eager, matching the
    # closed-form collectives.
    assert not InterconnectSpec().is_rendezvous(1e18)


def test_nan_fields_rejected():
    for field in (
        "latency_s",
        "bandwidth_bytes_per_s",
        "j_per_byte",
        "link_static_w",
        "hop_latency_s",
        "eager_threshold_bytes",
    ):
        with pytest.raises(ValidationError, match=field):
            InterconnectSpec(**{field: math.nan})
    # An infinite threshold (everything eager) stays legal.
    assert InterconnectSpec(eager_threshold_bytes=math.inf).eager_threshold_bytes == math.inf


def test_message_time_prices_arrays_elementwise():
    net = InterconnectSpec(hop_latency_s=3e-7, eager_threshold_bytes=1024.0)
    nbytes = np.array([0.0, 100.0, 2048.0, 1e6])
    hops = np.array([1, 2, 3, 7])
    rdv = net.is_rendezvous(nbytes)
    assert rdv.tolist() == [False, False, True, True]
    got = net.message_time_s(nbytes, hops, rdv)
    want = [
        net.message_time_s(float(b), int(h), bool(r))
        for b, h, r in zip(nbytes, hops, rdv)
    ]
    assert got.tobytes() == np.array(want).tobytes()
    # hops=1 eager stays bit-identical to the alpha-beta transfer time.
    eager = net.message_time_s(nbytes, np.ones(4, dtype=np.int64), False)
    assert eager.tolist() == [net.transfer_time_s(float(b)) for b in nbytes]
    with pytest.raises(ValidationError):
        net.message_time_s(np.array([1.0, math.nan]), hops=1)
    with pytest.raises(ValidationError):
        net.message_time_s(1.0, hops=np.array([1, 0]))


def test_single_rank_cluster_is_valid():
    cl = ClusterSpec(max_nodes=1)
    assert cl.validate_nodes(1) == 1
    with pytest.raises(Exception):
        cl.validate_nodes(0)
    with pytest.raises(Exception):
        cl.validate_nodes(-3)
