"""Discrete-event network simulation of distributed schedules (§VIII).

The closed-form models in :mod:`repro.distributed.dmatmul` and the BSP
superstep simulator price communication on a flat alpha-beta network.
This module replaces that with an event-level simulation in the style
of the RIKEN hpl-ai ``simulate.py``: every rank is a single-ported
endpoint whose sends, receives, computes and barriers chain in program
order; messages pay per-hop latency on a configurable
:class:`~repro.distributed.network.Topology`; large sends switch from
the eager to the rendezvous protocol (an extra handshake latency and a
dependency on the receiver being ready); broadcasts may be chunked and
pipelined down rank chains.

The event stream is *lowered*, not interpreted: it becomes SoA columns
wrapped in a :class:`~repro.runtime.arena.TaskArena`
(:mod:`repro.runtime.rankevents`) and the simulation is one vectorized
earliest-finish sweep — which is what keeps P-sweeps to thousands of
ranks sub-second.  The per-rank object loop of
:mod:`repro.testing.netlowering` is its differential baseline:
bit-identical results, orders of magnitude slower.

Lowering is batched per collective round.  A collective is a
``(groups x g)`` rank matrix ``G`` (one group per row, the root in
column 0) plus member-index pairs ``(pi, pj)`` precomputed once per
group size — binomial broadcast rounds, chunked chain pipelines,
mirrored binomial reductions, CAPS 7-way all-pairs exchanges.
``G[:, pi].ravel()`` and ``G[:, pj].ravel()`` are the sources and
destinations of every message of every group in group-major order,
exactly the order a message-at-a-time loop over the groups emits, so a
whole SUMMA step or CAPS BFS step costs one ``Topology.hops`` call, one
``InterconnectSpec.message_time_s`` call and one
:meth:`~repro.runtime.rankevents.EventStreamBuilder.messages` batch.
The scalar loop survives only as the reference lowering in
:mod:`repro.testing.netlowering`, which the ``network_sim`` verify
family compares against this one column for column.

Every simulated schedule is validated against the Ballard–Demmel
communication lower bounds (Eq. 8, :mod:`repro.core.bounds`): the
busiest rank must move at least the bound's floor, with the Strassen
exponent for CAPS and the classical exponent for the SUMMA family.

Exactness contract: on a contention-free (``flat``) topology with the
default eager protocol, :func:`simulate_bsp` reproduces
:class:`~repro.distributed.bsp.BspSimulator` *bit-for-bit* — same
floats, not approximately.  The ``network_sim`` verify family enforces
this differential oracle in CI.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.bounds import communication_floor_bytes, omega_for_algorithm
from ..observability import trace
from ..runtime.rankevents import EventStreamBuilder, RankEventProgram
from ..util.errors import ConfigurationError, ValidationError
from ..util.validation import require_nonempty, require_positive
from .bsp import BspResult, Superstep, bsp_constants, idle_times, rank_energies
from .dmatmul import strassen_flops
from .network import ClusterSpec

__all__ = [
    "NET_ALGORITHMS",
    "NetworkConfig",
    "NetRunResult",
    "NetworkSweep",
    "NetworkSweepResult",
    "broadcast_events",
    "build_events",
    "simulate",
    "bsp_events",
    "simulate_bsp",
]

_WORD = 8

#: Event-simulated distributed algorithms.
NET_ALGORITHMS = ("summa", "summa25d", "summa15d", "caps-dist")

_PROTOCOLS = ("eager", "rendezvous", "auto")


@dataclass(frozen=True)
class NetworkConfig:
    """Knobs of one simulated schedule.

    Attributes
    ----------
    protocol:
        Send protocol: ``eager``, ``rendezvous``, or ``auto`` (pick by
        the interconnect's eager threshold).
    chunks:
        Broadcast pipelining: ``1`` lowers broadcasts as binomial
        trees; ``>1`` streams that many equal chunks down a rank chain
        (the hpl-ai pipelined shape).
    c:
        Replication factor for the 2.5D / 1.5D SUMMA variants.
    efficiency:
        Fraction of node peak the local compute phases achieve.
    leaf_cutoff:
        Strassen recursion cutoff for the CAPS flop count.
    """

    protocol: str = "auto"
    chunks: int = 1
    c: int = 1
    efficiency: float = 0.90
    leaf_cutoff: int = 64

    def __post_init__(self) -> None:
        if self.protocol not in _PROTOCOLS:
            raise ValidationError(
                f"unknown protocol {self.protocol!r}; expected one of {_PROTOCOLS}"
            )
        require_positive(self.chunks, "chunks")
        require_positive(self.c, "c")
        require_positive(self.efficiency, "efficiency")
        require_positive(self.leaf_cutoff, "leaf_cutoff")
        if self.efficiency > 1.0:
            raise ValidationError("efficiency must be <= 1.0")


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def _bcast_pairs(g: int, chunks: int) -> tuple[np.ndarray, np.ndarray]:
    """``(i, j)`` member-index pairs of a broadcast from member 0 of a
    *g*-member group, in emission order: binomial rounds (round *r*
    sends ``i -> i + 2**r``) when ``chunks == 1``, else *chunks*
    passes down the chain ``0 -> 1 -> ... -> g-1``."""
    if chunks > 1:
        i = np.tile(np.arange(g - 1, dtype=np.int64), chunks)
        return _frozen(i, i + 1)
    pairs = []
    have = 1
    while have < g:
        pairs.extend((i, i + have) for i in range(min(have, g - have)))
        have *= 2
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
    return _frozen(i, j)


@functools.lru_cache(maxsize=None)
def _reduce_pairs(g: int) -> tuple[np.ndarray, np.ndarray]:
    """``(i, j)`` pairs of a binomial reduction onto member 0: the
    binomial broadcast mirrored, widest round first, edges reversed."""
    pairs = []
    have = 1
    while have * 2 < g:
        have *= 2
    while have >= 1:
        pairs.extend((i + have, i) for i in range(min(have, g - have)))
        have //= 2
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
    return _frozen(i, j)


@functools.lru_cache(maxsize=None)
def _all_pairs(g: int) -> tuple[np.ndarray, np.ndarray]:
    """``(i, j)`` pairs of an all-to-all exchange, ``i``-major, no
    self-pairs."""
    i, j = np.divmod(np.arange(g * g, dtype=np.int64), g)
    off = i != j
    return _frozen(i[off], j[off])


class _Emitter:
    """Batched message emission with topology-aware durations.

    Collectives take ``(groups x g)`` rank matrices (see the module
    docstring); each call lowers its whole round as one builder batch
    priced with one ``Topology.hops`` and one ``message_time_s`` call.
    """

    def __init__(
        self, builder: EventStreamBuilder, cluster: ClusterSpec, cfg: NetworkConfig
    ):
        self.b = builder
        self.net = cluster.interconnect
        self.topo = cluster.topology
        self.cfg = cfg

    def messages(self, src: np.ndarray, dst: np.ndarray, nbytes: float) -> None:
        """Messages ``src[k] -> dst[k]`` of *nbytes* each, in order."""
        if not len(src):
            return
        hops = self.topo.hops(src, dst, self.b.ranks)
        rdv = self.net.is_rendezvous(nbytes, self.cfg.protocol)
        dur = self.net.message_time_s(nbytes, hops, rdv)
        self.b.messages(src, dst, nbytes, dur, rdv)

    def _collective(self, groups, pairs, nbytes: float) -> None:
        src, dst = [], []
        for grp in groups:
            pi, pj = pairs(grp.shape[1])
            src.append(grp[:, pi].ravel())
            dst.append(grp[:, pj].ravel())
        self.messages(np.concatenate(src), np.concatenate(dst), nbytes)

    def bcast(self, *groups: np.ndarray, nbytes: float) -> None:
        """Broadcast *nbytes* from column 0 of every row of each group
        matrix to the rest of its row, as one batch.

        Binomial tree when ``chunks == 1``; a chunked pipeline down the
        row otherwise."""
        chunks = self.cfg.chunks
        if chunks > 1:
            nbytes = nbytes / chunks
        self._collective(groups, lambda g: _bcast_pairs(g, chunks), nbytes)

    def reduce(self, groups: np.ndarray, nbytes: float) -> None:
        """Binomial reduction onto column 0 of every row (bcast
        mirrored)."""
        self._collective((groups,), _reduce_pairs, nbytes)

    def exchange(self, groups: np.ndarray, nbytes: float) -> None:
        """Every member of every row sends *nbytes* to each other
        member."""
        self._collective((groups,), _all_pairs, nbytes)


def _grid_bcasts(grid: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column broadcast groups of SUMMA step *k* on *grid*:
    each row/column rotated so its step-*k* owner is the root."""
    rot = (np.arange(grid.shape[1]) + k) % grid.shape[1]
    return grid[:, rot], grid.T[:, rot]


def _compute_rate(cluster: ClusterSpec, cfg: NetworkConfig) -> float:
    return cluster.node.machine_peak_flops * cfg.efficiency


def _check_feasible(cluster: ClusterSpec, n: int, ranks: int, words_per_rank: float) -> None:
    need = words_per_rank * _WORD
    have = cluster.node.dram.capacity_bytes
    if need > have:
        raise ConfigurationError(
            f"n={n} on {ranks} ranks needs {need / 2**30:.2f} GiB/rank, "
            f"node has {have / 2**30:.2f} GiB"
        )


def summa2d_events(
    cluster: ClusterSpec, n: int, ranks: int, cfg: NetworkConfig
) -> RankEventProgram:
    """Classical SUMMA on an s x s grid: s steps of one row broadcast,
    one column broadcast and one local panel multiply per rank."""
    s = math.isqrt(ranks)
    if s * s != ranks:
        raise ConfigurationError(f"summa needs a square rank count, got {ranks}")
    _check_feasible(cluster, n, ranks, 3.0 * float(n) ** 2 / ranks)
    b = EventStreamBuilder(ranks)
    em = _Emitter(b, cluster, cfg)
    rate = _compute_rate(cluster, cfg)
    step_dur = (2.0 * float(n) ** 3 / ranks / s) / rate
    panel = (n / s) * (n / s) * _WORD
    grid = np.arange(ranks, dtype=np.int64).reshape(s, s)
    for k in range(s):
        em.bcast(*_grid_bcasts(grid, k), nbytes=panel)
        b.computes(grid.ravel(), step_dur)
    return b.build(f"summa2d:n{n}:p{ranks}")


def summa25d_events(
    cluster: ClusterSpec, n: int, ranks: int, cfg: NetworkConfig
) -> RankEventProgram:
    """2.5D SUMMA (Solomonik & Demmel): ``c`` layers each run a 1/c
    slice of the SUMMA steps on their own p x p grid, after an initial
    operand replication over the layer fibers and before a final
    C-reduction back to layer 0."""
    c = cfg.c
    if ranks % c:
        raise ConfigurationError(f"summa25d: c={c} must divide ranks={ranks}")
    p2 = ranks // c
    p = math.isqrt(p2)
    if p * p != p2:
        raise ConfigurationError(
            f"summa25d: ranks/c = {p2} must be a perfect square"
        )
    if p % c:
        raise ConfigurationError(f"summa25d: c={c} must divide grid size p={p}")
    _check_feasible(cluster, n, ranks, c * 3.0 * float(n) ** 2 / ranks)
    b = EventStreamBuilder(ranks)
    em = _Emitter(b, cluster, cfg)
    rate = _compute_rate(cluster, cfg)
    block = (n / p) * (n / p) * _WORD
    step_dur = (2.0 * (float(n) / p) ** 3) / rate
    layers = np.arange(ranks, dtype=np.int64).reshape(c, p, p)
    fibers = layers.reshape(c, p2).T  # fibers[i, l] = l * p2 + i
    if c > 1:
        em.bcast(fibers, nbytes=2.0 * block)
    steps_per_layer = p // c
    for l in range(c):
        for t in range(steps_per_layer):
            em.bcast(*_grid_bcasts(layers[l], l * steps_per_layer + t), nbytes=block)
            b.computes(layers[l].ravel(), step_dur)
    if c > 1:
        em.reduce(fibers, block)
    return b.build(f"summa25d:n{n}:p{ranks}:c{c}")


def summa15d_events(
    cluster: ClusterSpec, n: int, ranks: int, cfg: NetworkConfig
) -> RankEventProgram:
    """1.5D SUMMA (PASSIONLab ``15d.cpp``): A block-rows stay put, B
    block-rows ring-shift by ``c`` positions; each of the ``c`` layers
    covers a 1/c slice of the ring, then partial C reduces over the
    layer fibers."""
    c = cfg.c
    if ranks % c:
        raise ConfigurationError(f"summa15d: c={c} must divide ranks={ranks}")
    p = ranks // c
    if p % c:
        raise ConfigurationError(
            f"summa15d: c^2={c * c} must divide ranks={ranks} (c | p)"
        )
    _check_feasible(cluster, n, ranks, (1.0 + 2.0 * c) * float(n) ** 2 / ranks)
    b = EventStreamBuilder(ranks)
    em = _Emitter(b, cluster, cfg)
    rate = _compute_rate(cluster, cfg)
    block = (float(n) * n / p) * _WORD  # one B block-row (n/p x n)
    round_dur = (2.0 * float(n) ** 3 / p / p) / rate
    rounds = p // c
    ring = np.arange(p, dtype=np.int64)
    shifted = (ring + c) % p
    for l in range(c):
        base = l * p
        for t in range(rounds):
            b.computes(base + ring, round_dur)
            if t < rounds - 1:
                em.messages(base + ring, base + shifted, block)
    if c > 1:
        em.reduce(np.arange(ranks, dtype=np.int64).reshape(c, p).T, block)
    return b.build(f"summa15d:n{n}:p{ranks}:c{c}")


def caps_events(
    cluster: ClusterSpec, n: int, ranks: int, cfg: NetworkConfig
) -> RankEventProgram:
    """CAPS at its Eq. 8 volume: k = log7(P) BFS exchange steps (each
    rank swaps subproblems with the 6 other members of its stride
    group), then the local Strassen multiply."""
    k = 0
    q = ranks
    while q % 7 == 0:
        q //= 7
        k += 1
    if q != 1:
        raise ConfigurationError(f"caps-dist needs ranks = 7^k, got {ranks}")
    _check_feasible(
        cluster, n, ranks, 3.0 * float(n) ** 2 / ranks * (7.0 / 4.0) ** max(k, 1)
    )
    b = EventStreamBuilder(ranks)
    em = _Emitter(b, cluster, cfg)
    if k:
        floor = communication_floor_bytes(
            n, ranks, cluster.node_memory_words(), omega_for_algorithm("caps-dist")
        )
        per_partner = floor / k / 6.0
        everyone = np.arange(ranks, dtype=np.int64)
        for step in range(k):
            stride = 7**step
            # groups[hi * stride + lo, j] = hi * stride * 7 + j * stride + lo
            groups = everyone.reshape(-1, 7, stride).transpose(0, 2, 1).reshape(-1, 7)
            em.exchange(groups, per_partner)
    rate = _compute_rate(cluster, cfg)
    dur = strassen_flops(n, cfg.leaf_cutoff) / ranks / rate
    b.computes(np.arange(ranks, dtype=np.int64), dur)
    return b.build(f"caps:n{n}:p{ranks}")


def broadcast_events(
    cluster: ClusterSpec, ranks: int, nbytes: float, cfg: NetworkConfig | None = None
) -> RankEventProgram:
    """A standalone one-collective program: broadcast *nbytes* from rank
    0 to all.  Exists for the differential oracle — on a flat topology
    with the eager protocol its makespan equals the matching closed form
    in :mod:`repro.distributed.comm` (binomial ``broadcast`` when
    ``chunks == 1``, ``pipelined_broadcast`` otherwise) bit-for-bit."""
    require_positive(ranks, "ranks")
    b = EventStreamBuilder(ranks)
    _Emitter(b, cluster, cfg or NetworkConfig()).bcast(
        np.arange(ranks, dtype=np.int64)[None, :], nbytes=nbytes
    )
    return b.build(f"bcast:p{ranks}")


_BUILDERS = {
    "summa": summa2d_events,
    "summa25d": summa25d_events,
    "summa15d": summa15d_events,
    "caps-dist": caps_events,
}


def build_events(
    cluster: ClusterSpec,
    algorithm: str,
    n: int,
    ranks: int,
    cfg: NetworkConfig | None = None,
) -> RankEventProgram:
    """Lower one (algorithm, n, ranks) schedule to a rank-event program."""
    require_positive(n, "n")
    cluster.validate_nodes(ranks)
    if algorithm not in _BUILDERS:
        raise ValidationError(
            f"unknown algorithm {algorithm!r}; expected one of {NET_ALGORITHMS}"
        )
    return _BUILDERS[algorithm](cluster, n, ranks, cfg or NetworkConfig())


@dataclass(frozen=True)
class NetRunResult:
    """One simulated schedule plus its Ballard–Demmel floor."""

    algorithm: str
    n: int
    ranks: int
    n_events: int
    total_time_s: float
    compute_s: np.ndarray  # per rank
    sent_bytes: np.ndarray  # per rank
    recv_bytes: np.ndarray  # per rank
    floor_bytes: float  # Eq. 8 per-rank floor (0 when ranks < 2)

    @property
    def max_comm_bytes(self) -> float:
        """Traffic of the busiest rank (sent + received)."""
        if not len(self.sent_bytes):
            return 0.0
        return float((self.sent_bytes + self.recv_bytes).max())

    @property
    def bound_margin(self) -> float:
        """How far above the Eq. 8 floor the busiest rank sits."""
        if self.floor_bytes <= 0.0:
            return math.inf
        return self.max_comm_bytes / self.floor_bytes

    @property
    def compute_time_s(self) -> float:
        """Compute time of the slowest rank."""
        return float(self.compute_s.max()) if len(self.compute_s) else 0.0

    def beats_bound(self, rel: float = 1e-9) -> bool:
        """True when the schedule (impossibly) moves less than Eq. 8
        allows — a modelling bug the ``network_sim`` family hunts."""
        return self.ranks > 1 and self.max_comm_bytes < self.floor_bytes * (1.0 - rel)


def simulate(
    cluster: ClusterSpec,
    algorithm: str,
    n: int,
    ranks: int,
    cfg: NetworkConfig | None = None,
) -> NetRunResult:
    """Build, sweep and reduce one schedule."""
    cfg = cfg or NetworkConfig()
    with trace.span("netsim.lower", algorithm=algorithm, ranks=ranks) as sp:
        prog = build_events(cluster, algorithm, n, ranks, cfg)
        sp.set(events=prog.n_events)
    with trace.span("netsim.events", events=prog.n_events):
        agg = prog.simulate()
    floor = communication_floor_bytes(
        n, ranks, cluster.node_memory_words(), omega_for_algorithm(algorithm)
    )
    return NetRunResult(
        algorithm=algorithm,
        n=n,
        ranks=ranks,
        n_events=prog.n_events,
        total_time_s=agg.total_s,
        compute_s=agg.compute_s,
        sent_bytes=agg.sent_bytes,
        recv_bytes=agg.recv_bytes,
        floor_bytes=floor,
    )


# ---- BSP lowering (the differential-oracle bridge) ---------------------


def bsp_events(cluster: ClusterSpec, program: Sequence[Superstep]) -> RankEventProgram:
    """Lower a BSP superstep program to rank events.

    Per superstep: one compute event per rank, one SYNC barrier priced
    at ``g*h + L`` (identical arithmetic to
    :class:`~repro.distributed.bsp.BspSimulator`), and one zero-time
    receive marker per rank carrying its h-relation volume.  On any
    cluster this reproduces the closed-form BSP totals bit-for-bit —
    the barrier serializes the steps exactly like the closed form's
    running sum."""
    program = require_nonempty(list(program), "program")
    ranks = program[0].ranks
    for step in program:
        if step.ranks != ranks:
            raise ValidationError(
                f"superstep {step.name!r} has {step.ranks} ranks, expected {ranks}"
            )
    g, barrier_l = bsp_constants(cluster.interconnect, ranks)
    b = EventStreamBuilder(ranks)
    everyone = np.arange(ranks, dtype=np.int64)
    for step in program:
        b.computes(everyone, step.compute_s)
        b.barrier(g * max(step.h_bytes) + barrier_l)
        b.mark_recvs(everyone, step.h_bytes)
    return b.build("bsp-events")


def simulate_bsp(cluster: ClusterSpec, program: Sequence[Superstep]) -> BspResult:
    """Event-simulated BSP run; equals ``BspSimulator.run`` exactly."""
    prog = bsp_events(cluster, program)
    agg = prog.simulate()
    total = agg.total_s
    comm_total = agg.sync_s
    compute = [float(x) for x in agg.compute_s]
    comm_bytes = [float(x) for x in agg.comm_bytes()]
    return BspResult(
        ranks=prog.ranks,
        total_time_s=total,
        compute_time_s=compute,
        comm_time_s=comm_total,
        idle_time_s=idle_times(total, comm_total, compute),
        rank_energy_j=rank_energies(cluster, total, compute, comm_bytes),
    )


# ---- sweep driver -------------------------------------------------------


@dataclass
class NetworkSweepResult:
    """P-sweep of one algorithm under the event simulator."""

    algorithm: str
    n: int
    rank_counts: list[int]
    results: list[NetRunResult]

    def time_curve(self) -> list[tuple[int, float]]:
        return [(r.ranks, r.total_time_s) for r in self.results]

    def margin_curve(self) -> list[tuple[int, float]]:
        return [(r.ranks, r.bound_margin) for r in self.results]

    def violations(self) -> list[NetRunResult]:
        """Schedules that beat their Eq. 8 floor (must be empty)."""
        return [r for r in self.results if r.beats_bound()]


class NetworkSweep:
    """Sweeps rank counts for one algorithm through the simulator."""

    def __init__(
        self,
        cluster: ClusterSpec,
        algorithm: str = "summa25d",
        cfg: NetworkConfig | None = None,
    ):
        if algorithm not in NET_ALGORITHMS:
            raise ValidationError(
                f"unknown algorithm {algorithm!r}; expected one of {NET_ALGORITHMS}"
            )
        self.cluster = cluster
        self.algorithm = algorithm
        self.cfg = cfg or NetworkConfig()

    def run(self, n: int, rank_counts: Sequence[int]) -> NetworkSweepResult:
        rank_counts = require_nonempty(list(rank_counts), "rank_counts")
        results = []
        with trace.span(
            "netsim.sweep",
            algorithm=self.algorithm,
            n=n,
            ranks=list(rank_counts),
            topology=self.cluster.topology.kind,
        ):
            for ranks in rank_counts:
                with trace.span(
                    "cell", alg=self.algorithm, n=n, nodes=ranks
                ):
                    results.append(
                        simulate(self.cluster, self.algorithm, n, ranks, self.cfg)
                    )
        return NetworkSweepResult(
            algorithm=self.algorithm,
            n=n,
            rank_counts=list(rank_counts),
            results=results,
        )
