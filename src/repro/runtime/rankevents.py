"""Rank-level event streams lowered onto the SoA task arena.

The discrete-event network simulator (:mod:`repro.distributed.netsim`)
describes a distributed run as a stream of per-rank events — local
compute, point-to-point sends/receives, barriers — whose dependency
structure is a DAG: each rank's events chain in program order (a rank
is single-ported: one NIC transaction at a time), and every receive
additionally depends on the matching send.  Simulating the network is
then exactly the earliest-finish sweep the scheduler's arena already
vectorizes: ``finish = max(dep finishes) + duration``, computed by one
Kahn frontier pass that pushes each frontier's finish times to its
successors (``np.maximum.at``) and so visits every event and dependency
once, however deep the DAG.

Streams are built in batches (:class:`EventStreamBuilder`): a whole
collective round is appended as numpy column chunks, and every event's
chain predecessor in the batch is resolved at once by a stable argsort
of the batch's (rank, event id) occurrences — the previous occurrence
of the same rank, or the rank's head before the batch.  The result is
exactly the stream a one-event-at-a-time builder would produce.

The stream lives as SoA columns (kind/rank/peer/nbytes/duration + CSR
deps), is wrapped in a real :class:`~repro.runtime.arena.TaskArena`
(all six cost columns alias one shared zeros array), and is swept by
``TaskArena.finish_times``.  No per-rank Python object is ever
materialized.  The per-rank object loop it must equal bit for bit is
:func:`repro.testing.netlowering.reference_finish_times`, the
``network_sim`` verify family's baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import ValidationError
from ..util.validation import require_nonnegative, require_positive
from .arena import _COST_FIELDS, NO_CREATOR, TaskArena

__all__ = [
    "KIND_COMPUTE",
    "KIND_SEND",
    "KIND_RECV",
    "KIND_SYNC",
    "EventStreamBuilder",
    "RankEventProgram",
    "EventAggregate",
]

#: Event kinds (also the arena task names, for trace/debug output).
KIND_COMPUTE = 0
KIND_SEND = 1
KIND_RECV = 2
KIND_SYNC = 3
_KIND_NAMES = ("compute", "send", "recv", "sync")

class EventStreamBuilder:
    """Appends rank events in program order, maintaining per-rank chains.

    Events are appended in *batches* — numpy column chunks, never an
    object per event — and concatenated once by :meth:`build`.  Every
    event depends on its rank's previous event (the single-port
    serialization of a NIC); ``_last[r]`` holds the id of rank *r*'s
    newest event.

    A batch resolves all its chain predecessors at once, exactly as if
    its events had been appended one at a time: the batch's (rank,
    event id) occurrences are stably argsorted by rank, so each
    occurrence's predecessor is the occurrence just before it in its
    rank's run, and the first of each run falls back to ``_last``.
    ``_last`` then advances to each run's final occurrence.  The scalar
    :meth:`compute`, :meth:`message` and :meth:`mark_recv` are
    length-1 batches through the same path.

    A batch is validated whole before anything is appended, so one
    that raises :class:`ValidationError` leaves the builder untouched.
    """

    def __init__(self, ranks: int):
        require_positive(ranks, "ranks")
        self.ranks = ranks
        self._n = 0
        self._kind: list[np.ndarray] = []
        self._rank: list[np.ndarray] = []
        self._peer: list[np.ndarray] = []
        self._nbytes: list[np.ndarray] = []
        self._dur: list[np.ndarray] = []
        self._dep_flat: list[np.ndarray] = []
        self._dep_counts: list[np.ndarray] = []
        self._last = np.full(ranks, -1, dtype=np.int64)

    def __len__(self) -> int:
        return self._n

    def _ranks(self, ranks) -> np.ndarray:
        ranks = np.array(ranks, dtype=np.int64).ravel()
        bad = (ranks < 0) | (ranks >= self.ranks)
        if bad.any():
            raise ValidationError(
                f"rank {ranks[bad][0]} out of range for {self.ranks} ranks"
            )
        return ranks

    @staticmethod
    def _values(values, m: int, name: str) -> np.ndarray:
        values = np.broadcast_to(np.asarray(values, dtype=np.float64), (m,))
        return require_nonnegative(values, name)

    def _heads(self, occ: np.ndarray) -> np.ndarray:
        """Chain predecessor of each occurrence in *occ* (the ranks of
        the next ``len(occ)`` event ids, in order); advances ``_last``."""
        order = np.argsort(occ, kind="stable")
        r = occ[order]
        first = np.empty(len(r), dtype=bool)
        first[0] = True
        np.not_equal(r[1:], r[:-1], out=first[1:])
        ids = self._n + order
        pred_sorted = np.empty(len(r), dtype=np.int64)
        pred_sorted[1:] = ids[:-1]
        pred_sorted[first] = self._last[r[first]]
        final = np.empty(len(r), dtype=bool)
        final[-1] = True
        final[:-1] = first[1:]
        self._last[r[final]] = ids[final]
        pred = np.empty(len(r), dtype=np.int64)
        pred[order] = pred_sorted
        return pred

    def _append(self, kind, rank, peer, nbytes, dur, cand: np.ndarray) -> np.ndarray:
        """Append one batch; *cand* holds each event's dependency
        candidates in order, ``-1`` for none.  Returns the event ids."""
        m = len(kind)
        ids = np.arange(self._n, self._n + m, dtype=np.int64)
        keep = cand >= 0
        self._kind.append(kind)
        self._rank.append(rank)
        self._peer.append(peer)
        self._nbytes.append(nbytes)
        self._dur.append(dur)
        self._dep_flat.append(cand[keep])
        self._dep_counts.append(keep.sum(axis=1))
        self._n += m
        return ids

    def _local(self, kind: int, ranks, nbytes, dur) -> np.ndarray:
        """A batch of single-rank events (no peer) chained per rank."""
        m = len(ranks)
        if not m:
            return np.zeros(0, dtype=np.int64)
        pred = self._heads(ranks)
        return self._append(
            np.full(m, kind, dtype=np.int64),
            ranks,
            np.full(m, -1, dtype=np.int64),
            nbytes,
            dur,
            pred[:, None],
        )

    def computes(self, ranks, seconds) -> np.ndarray:
        """Local work: one event per entry of *ranks*, each on its
        rank's chain, in order.  Returns the event ids."""
        ranks = self._ranks(ranks)
        seconds = self._values(seconds, len(ranks), "seconds")
        return self._local(KIND_COMPUTE, ranks, np.zeros(len(ranks)), seconds.copy())

    def mark_recvs(self, ranks, nbytes) -> np.ndarray:
        """Zero-duration accounting events: charge *nbytes* of received
        traffic to each rank without advancing time (used by the BSP
        lowering, whose h-relation volume is priced inside the
        barrier).  Returns the event ids."""
        ranks = self._ranks(ranks)
        nbytes = self._values(nbytes, len(ranks), "nbytes")
        return self._local(KIND_RECV, ranks, nbytes.copy(), np.zeros(len(ranks)))

    def messages(self, src, dst, nbytes, durations, rendezvous=False) -> np.ndarray:
        """Point-to-point messages ``src[k] -> dst[k]``, in order.

        Each message is a send then a receive.  The send occupies the
        sender's port for its *duration* (the full wire time is
        charged there) and depends on the sender's chain head; under
        *rendezvous* it then also waits for the receiver's chain head
        (the handshake).  The receive is a zero-duration arrival on the
        receiver's chain, depending on the receiver's head and then on
        its send.  *nbytes*, *durations* and *rendezvous* broadcast
        against *src*.  Returns the ``(m, 2)`` ``(send, recv)`` ids.
        """
        src = self._ranks(src)
        dst = self._ranks(dst)
        if len(src) != len(dst):
            raise ValidationError(
                f"messages: {len(src)} sources but {len(dst)} destinations"
            )
        if np.any(src == dst):
            raise ValidationError("self-message: src == dst")
        m = len(src)
        nbytes = self._values(nbytes, m, "nbytes")
        durations = self._values(durations, m, "duration")
        rendezvous = np.broadcast_to(np.asarray(rendezvous, dtype=bool), (m,))
        if not m:
            return np.zeros((0, 2), dtype=np.int64)
        occ = np.empty(2 * m, dtype=np.int64)
        occ[0::2] = src
        occ[1::2] = dst
        pred = self._heads(occ).reshape(m, 2)
        ids = self._n + np.arange(2 * m, dtype=np.int64).reshape(m, 2)
        # Dependency candidates: send -> [src head, dst head if
        # rendezvous]; recv -> [dst head, its send].
        cand = np.empty((m, 2, 2), dtype=np.int64)
        cand[:, 0, 0] = pred[:, 0]
        cand[:, 0, 1] = np.where(rendezvous, pred[:, 1], -1)
        cand[:, 1, 0] = pred[:, 1]
        cand[:, 1, 1] = ids[:, 0]
        kind = np.empty((m, 2), dtype=np.int64)
        kind[:, 0] = KIND_SEND
        kind[:, 1] = KIND_RECV
        dur = np.zeros((m, 2))
        dur[:, 0] = durations
        self._append(
            kind.ravel(),
            occ,
            np.stack([dst, src], axis=1).ravel(),
            np.repeat(nbytes, 2),
            dur.ravel(),
            cand.reshape(2 * m, 2),
        )
        return ids

    def compute(self, rank: int, seconds: float) -> int:
        """Local work on *rank*'s chain."""
        return int(self.computes([rank], [seconds])[0])

    def message(
        self,
        src: int,
        dst: int,
        nbytes: float,
        duration: float,
        rendezvous: bool = False,
    ) -> tuple[int, int]:
        """One point-to-point message (see :meth:`messages`); returns
        ``(send_id, recv_id)``."""
        send, recv = self.messages([src], [dst], nbytes, duration, rendezvous)[0]
        return int(send), int(recv)

    def mark_recv(self, rank: int, nbytes: float) -> int:
        """One accounting event (see :meth:`mark_recvs`)."""
        return int(self.mark_recvs([rank], [nbytes])[0])

    def barrier(self, duration: float = 0.0) -> int:
        """Global join: one SYNC event depending on every rank's chain
        head, which then becomes every rank's new head.  *duration*
        models the barrier (or BSP comm-phase) cost."""
        require_nonnegative(duration, "duration")
        heads = self._last[self._last >= 0]
        eid = self._append(
            np.array([KIND_SYNC], dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.full(1, -1, dtype=np.int64),
            np.zeros(1),
            np.array([duration], dtype=np.float64),
            heads[None, :],
        )
        self._last[:] = eid[0]
        return int(eid[0])

    def build(self, name: str = "rank-events") -> "RankEventProgram":
        """Freeze the stream into a :class:`RankEventProgram`."""

        def cat(chunks, dtype):
            return np.concatenate(chunks) if chunks else np.zeros(0, dtype=dtype)

        counts = cat(self._dep_counts, np.int64)
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return RankEventProgram.from_columns(
            self.ranks,
            kind=cat(self._kind, np.int64),
            rank=cat(self._rank, np.int64),
            peer=cat(self._peer, np.int64),
            nbytes=cat(self._nbytes, np.float64),
            durations=cat(self._dur, np.float64),
            dep_indptr=indptr,
            dep_indices=cat(self._dep_flat, np.int64),
            name=name,
        )


@dataclass(frozen=True)
class EventAggregate:
    """Per-rank reductions of one simulated event stream."""

    total_s: float
    compute_s: np.ndarray  # per rank
    sent_bytes: np.ndarray  # per rank
    recv_bytes: np.ndarray  # per rank
    sync_s: float  # chain-summed SYNC durations (BSP comm phases)

    def comm_bytes(self) -> np.ndarray:
        """Per-rank total traffic (sent + received)."""
        return self.sent_bytes + self.recv_bytes


@dataclass
class RankEventProgram:
    """A frozen event stream plus its arena lowering."""

    ranks: int
    kind: np.ndarray
    rank: np.ndarray
    peer: np.ndarray
    nbytes: np.ndarray
    durations: np.ndarray
    arena: TaskArena

    @classmethod
    def from_columns(
        cls,
        ranks: int,
        *,
        kind: np.ndarray,
        rank: np.ndarray,
        peer: np.ndarray,
        nbytes: np.ndarray,
        durations: np.ndarray,
        dep_indptr: np.ndarray,
        dep_indices: np.ndarray,
        name: str = "rank-events",
    ) -> "RankEventProgram":
        """Wrap event columns and CSR deps in their arena lowering (all
        six cost columns alias one shared zeros array)."""
        n = len(kind)
        zeros = np.zeros(n, dtype=np.float64)
        arena = TaskArena(
            name=name,
            names=_KIND_NAMES,
            name_ids=kind,
            cost_columns={f: zeros for f in _COST_FIELDS},
            untied=np.ones(n, dtype=bool),
            created_by=np.full(n, NO_CREATOR, dtype=np.int64),
            dep_indptr=dep_indptr,
            dep_indices=dep_indices,
        )
        return cls(ranks, kind, rank, peer, nbytes, durations, arena)

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def n_events(self) -> int:
        return len(self.kind)

    def finish_times(self) -> np.ndarray:
        """Earliest finish of every event: the arena's frontier sweep."""
        return self.arena.finish_times(self.durations)

    def aggregate(self, finish: np.ndarray) -> EventAggregate:
        """Per-rank reductions of the finish times *finish*.

        ``np.bincount`` accumulates weights sequentially in array
        order, which is emission order — the same addition sequence a
        scalar per-step loop performs, so these reductions are exact."""
        total = float(finish.max()) if len(finish) else 0.0
        is_compute = self.kind == KIND_COMPUTE
        is_send = self.kind == KIND_SEND
        is_recv = self.kind == KIND_RECV
        is_sync = self.kind == KIND_SYNC
        compute = np.bincount(
            self.rank[is_compute],
            weights=self.durations[is_compute],
            minlength=self.ranks,
        )
        sent = np.bincount(
            self.rank[is_send], weights=self.nbytes[is_send], minlength=self.ranks
        )
        recv = np.bincount(
            self.rank[is_recv], weights=self.nbytes[is_recv], minlength=self.ranks
        )
        sync_durs = self.durations[is_sync]
        sync_s = float(sync_durs.cumsum()[-1]) if len(sync_durs) else 0.0
        return EventAggregate(
            total_s=total,
            compute_s=compute,
            sent_bytes=sent,
            recv_bytes=recv,
            sync_s=sync_s,
        )

    def simulate(self) -> EventAggregate:
        """Sweep and reduce in one call."""
        return self.aggregate(self.finish_times())
