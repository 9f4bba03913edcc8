"""Reference network lowering: one scalar message at a time.

:mod:`repro.distributed.netsim` lowers each collective round as one
batch of numpy columns and resolves every event's chain predecessor
for the whole batch at once.  This module is the slow, obvious version
it must equal: the schedules walked message by message, every hop
count and wire time priced per message, and every dependency taken
from a per-rank ``last`` list as each event is appended.

:func:`~repro.testing.oracle.differential_network_check` compares the
two column for column — kind, rank, peer, bytes, duration and the CSR
dependency arrays, byte for byte.  The module is deliberately
independent of :class:`~repro.runtime.rankevents.EventStreamBuilder`;
it shares only :meth:`RankEventProgram.from_columns`, which wraps the
finished columns.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.bounds import communication_floor_bytes, omega_for_algorithm
from ..runtime.rankevents import (
    KIND_COMPUTE,
    KIND_RECV,
    KIND_SEND,
    KIND_SYNC,
    RankEventProgram,
)

__all__ = [
    "ReferenceEventBuilder",
    "reference_events",
    "reference_broadcast_events",
    "reference_bsp_events",
]

_WORD = 8


class ReferenceEventBuilder:
    """Today's scalar builder: one append per event, chained through a
    per-rank ``last`` list.  No validation — it only ever sees valid
    schedules."""

    def __init__(self, ranks: int):
        self.ranks = ranks
        self.cols: tuple[list, ...] = ([], [], [], [], [])  # kind rank peer bytes dur
        self.deps: list[int] = []
        self.counts: list[int] = []
        self.last = [-1] * ranks

    def _emit(self, kind, rank, peer, nbytes, dur, deps) -> int:
        eid = len(self.counts)
        for col, v in zip(self.cols, (kind, rank, peer, nbytes, dur)):
            col.append(v)
        self.deps.extend(deps)
        self.counts.append(len(deps))
        return eid

    def _chain(self, rank: int) -> list[int]:
        head = self.last[rank]
        return [head] if head >= 0 else []

    def compute(self, rank, seconds) -> None:
        self.last[rank] = self._emit(KIND_COMPUTE, rank, -1, 0.0, seconds, self._chain(rank))

    def mark_recv(self, rank, nbytes) -> None:
        self.last[rank] = self._emit(KIND_RECV, rank, -1, nbytes, 0.0, self._chain(rank))

    def message(self, src, dst, nbytes, duration, rendezvous) -> None:
        deps = self._chain(src) + (self._chain(dst) if rendezvous else [])
        send = self.last[src] = self._emit(KIND_SEND, src, dst, nbytes, duration, deps)
        self.last[dst] = self._emit(
            KIND_RECV, dst, src, nbytes, 0.0, self._chain(dst) + [send]
        )

    def barrier(self, duration) -> None:
        eid = self._emit(KIND_SYNC, 0, -1, 0.0, duration, [h for h in self.last if h >= 0])
        self.last = [eid] * self.ranks

    def build(self, name: str = "rank-events") -> RankEventProgram:
        kind, rank, peer, nbytes, dur = self.cols
        indptr = np.zeros(len(kind) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=indptr[1:])
        return RankEventProgram.from_columns(
            self.ranks,
            kind=np.asarray(kind, dtype=np.int64),
            rank=np.asarray(rank, dtype=np.int64),
            peer=np.asarray(peer, dtype=np.int64),
            nbytes=np.asarray(nbytes, dtype=np.float64),
            durations=np.asarray(dur, dtype=np.float64),
            dep_indptr=indptr,
            dep_indices=np.asarray(self.deps, dtype=np.int64),
            name=name,
        )


class _ScalarEmitter:
    """Prices and emits one message at a time."""

    def __init__(self, builder: ReferenceEventBuilder, cluster, cfg):
        self.b = builder
        self.net = cluster.interconnect
        self.topo = cluster.topology
        self.cfg = cfg

    def message(self, src: int, dst: int, nbytes: float) -> None:
        hops = int(self.topo.hops(np.int64(src), np.int64(dst), self.b.ranks))
        rdv = self.net.is_rendezvous(nbytes, self.cfg.protocol)
        self.b.message(src, dst, nbytes, self.net.message_time_s(nbytes, hops, rdv), rdv)

    def bcast(self, group: Sequence[int], nbytes: float) -> None:
        """Binomial tree from ``group[0]``, or a chunked chain pipeline."""
        g = len(group)
        if g <= 1:
            return
        if self.cfg.chunks > 1:
            chunk = nbytes / self.cfg.chunks
            for _ in range(self.cfg.chunks):
                for i in range(g - 1):
                    self.message(group[i], group[i + 1], chunk)
            return
        have = 1
        while have < g:
            for i in range(have):
                if i + have < g:
                    self.message(group[i], group[i + have], nbytes)
            have *= 2

    def reduce(self, group: Sequence[int], nbytes: float) -> None:
        """Binomial reduction onto ``group[0]`` (bcast mirrored)."""
        g = len(group)
        if g <= 1:
            return
        have = 1
        while have * 2 < g:
            have *= 2
        while have >= 1:
            for i in range(have):
                if i + have < g:
                    self.message(group[i + have], group[i], nbytes)
            have //= 2


def _rotate(group: list[int], k: int) -> list[int]:
    k %= len(group)
    return group[k:] + group[:k]


def _summa2d(b, em, cluster, n, ranks, cfg, rate) -> str:
    s = math.isqrt(ranks)
    step_dur = (2.0 * float(n) ** 3 / ranks / s) / rate
    panel = (n / s) * (n / s) * _WORD
    for k in range(s):
        for r in range(s):
            em.bcast(_rotate([r * s + c for c in range(s)], k), panel)
        for c in range(s):
            em.bcast(_rotate([r * s + c for r in range(s)], k), panel)
        for p in range(ranks):
            b.compute(p, step_dur)
    return f"summa2d:n{n}:p{ranks}"


def _summa25d(b, em, cluster, n, ranks, cfg, rate) -> str:
    c = cfg.c
    p2 = ranks // c
    p = math.isqrt(p2)
    block = (n / p) * (n / p) * _WORD
    step_dur = (2.0 * (float(n) / p) ** 3) / rate
    if c > 1:
        for i in range(p2):
            em.bcast([l * p2 + i for l in range(c)], 2.0 * block)
    steps_per_layer = p // c
    for l in range(c):
        base = l * p2
        for t in range(steps_per_layer):
            k = l * steps_per_layer + t
            for r in range(p):
                em.bcast(_rotate([base + r * p + cc for cc in range(p)], k), block)
            for cc in range(p):
                em.bcast(_rotate([base + rr * p + cc for rr in range(p)], k), block)
            for idx in range(p2):
                b.compute(base + idx, step_dur)
    if c > 1:
        for i in range(p2):
            em.reduce([l * p2 + i for l in range(c)], block)
    return f"summa25d:n{n}:p{ranks}:c{c}"


def _summa15d(b, em, cluster, n, ranks, cfg, rate) -> str:
    c = cfg.c
    p = ranks // c
    block = (float(n) * n / p) * _WORD
    round_dur = (2.0 * float(n) ** 3 / p / p) / rate
    rounds = p // c
    for l in range(c):
        base = l * p
        for t in range(rounds):
            for i in range(p):
                b.compute(base + i, round_dur)
            if t < rounds - 1:
                for i in range(p):
                    em.message(base + i, base + (i + c) % p, block)
    if c > 1:
        for i in range(p):
            em.reduce([l * p + i for l in range(c)], block)
    return f"summa15d:n{n}:p{ranks}:c{c}"


def _caps(b, em, cluster, n, ranks, cfg, rate) -> str:
    from ..distributed.dmatmul import strassen_flops

    k, q = 0, ranks
    while q % 7 == 0:
        q //= 7
        k += 1
    if k:
        floor = communication_floor_bytes(
            n, ranks, cluster.node_memory_words(), omega_for_algorithm("caps-dist")
        )
        per_partner = floor / k / 6.0
        for step in range(k):
            stride = 7**step
            for hi in range(ranks // (stride * 7)):
                for lo in range(stride):
                    group = [hi * stride * 7 + j * stride + lo for j in range(7)]
                    for a in group:
                        for z in group:
                            if a != z:
                                em.message(a, z, per_partner)
    dur = strassen_flops(n, cfg.leaf_cutoff) / ranks / rate
    for r in range(ranks):
        b.compute(r, dur)
    return f"caps:n{n}:p{ranks}"


_SCHEDULES = {
    "summa": _summa2d,
    "summa25d": _summa25d,
    "summa15d": _summa15d,
    "caps-dist": _caps,
}


def reference_events(cluster, algorithm: str, n: int, ranks: int, cfg=None) -> RankEventProgram:
    """Scalar lowering of one valid (algorithm, n, ranks) schedule; must
    equal :func:`repro.distributed.netsim.build_events` column for
    column."""
    from ..distributed.netsim import NetworkConfig

    cfg = cfg or NetworkConfig()
    b = ReferenceEventBuilder(ranks)
    rate = cluster.node.machine_peak_flops * cfg.efficiency
    name = _SCHEDULES[algorithm](b, _ScalarEmitter(b, cluster, cfg), cluster, n, ranks, cfg, rate)
    return b.build(name)


def reference_broadcast_events(cluster, ranks: int, nbytes: float, cfg=None) -> RankEventProgram:
    """Scalar twin of :func:`repro.distributed.netsim.broadcast_events`."""
    from ..distributed.netsim import NetworkConfig

    b = ReferenceEventBuilder(ranks)
    _ScalarEmitter(b, cluster, cfg or NetworkConfig()).bcast(list(range(ranks)), nbytes)
    return b.build(f"bcast:p{ranks}")


def reference_bsp_events(cluster, program) -> RankEventProgram:
    """Scalar twin of :func:`repro.distributed.netsim.bsp_events`."""
    from ..distributed.bsp import bsp_constants

    program = list(program)
    ranks = program[0].ranks
    g, barrier_l = bsp_constants(cluster.interconnect, ranks)
    b = ReferenceEventBuilder(ranks)
    for step in program:
        for r in range(ranks):
            b.compute(r, step.compute_s[r])
        b.barrier(g * max(step.h_bytes) + barrier_l)
        for r in range(ranks):
            b.mark_recv(r, step.h_bytes[r])
    return b.build("bsp-events")
