"""Rank-event streams, their arena sweep and its object-loop twin."""

import math

import numpy as np
import pytest

from repro.runtime.rankevents import (
    KIND_COMPUTE,
    KIND_RECV,
    KIND_SEND,
    KIND_SYNC,
    EventStreamBuilder,
)
from repro.testing.netlowering import (
    ReferenceEventBuilder,
    reference_finish_times,
    reference_simulate,
)
from repro.util.errors import ValidationError


def small_program():
    """Two ranks, a message each way, a barrier, trailing compute."""
    b = EventStreamBuilder(2)
    b.compute(0, 1.0)
    b.compute(1, 3.0)
    b.message(0, 1, nbytes=64.0, duration=0.5)
    b.message(1, 0, nbytes=32.0, duration=0.25, rendezvous=True)
    b.barrier(duration=0.125)
    b.compute(0, 2.0)
    b.compute(1, 0.5)
    return b.build()


def test_compute_chains_serialize():
    b = EventStreamBuilder(2)
    first = b.compute(0, 1.0)
    second = b.compute(0, 2.0)
    other = b.compute(1, 5.0)
    finish = b.build().finish_times()
    assert finish[first] == 1.0
    assert finish[second] == 3.0  # chained, not concurrent
    assert finish[other] == 5.0  # independent rank


def test_eager_recv_waits_for_wire_and_receiver():
    b = EventStreamBuilder(2)
    b.compute(1, 10.0)  # receiver is busy
    send, recv = b.message(0, 1, nbytes=8.0, duration=0.5)
    finish = b.build().finish_times()
    assert finish[send] == 0.5  # eager send ignores the receiver
    assert finish[recv] == 10.0  # arrival waits for the receiver's chain


def test_rendezvous_send_waits_for_receiver():
    b = EventStreamBuilder(2)
    b.compute(1, 10.0)
    send, recv = b.message(0, 1, nbytes=8.0, duration=0.5, rendezvous=True)
    finish = b.build().finish_times()
    assert finish[send] == 10.5  # handshake: wire starts after the receiver
    assert finish[recv] == 10.5


def test_barrier_joins_every_rank():
    b = EventStreamBuilder(3)
    b.compute(0, 1.0)
    b.compute(1, 7.0)
    b.compute(2, 2.0)
    bar = b.barrier(duration=0.5)
    tails = [b.compute(r, 0.25) for r in range(3)]
    finish = b.build().finish_times()
    assert finish[bar] == 7.5
    assert all(finish[t] == 7.75 for t in tails)


def test_mark_recv_charges_bytes_without_time():
    b = EventStreamBuilder(1)
    b.compute(0, 1.0)
    b.mark_recv(0, 4096.0)
    prog = b.build()
    agg = prog.simulate()
    assert agg.total_s == 1.0  # accounting only, no time advance
    assert agg.recv_bytes[0] == 4096.0
    assert agg.sent_bytes[0] == 0.0


def test_engines_agree_bit_for_bit():
    """The arena sweep equals the per-rank object loop."""
    prog = small_program()
    ev = prog.finish_times()
    rk = reference_finish_times(prog)
    assert ev.tobytes() == rk.tobytes()
    a, b = prog.simulate(), reference_simulate(prog)
    assert a.total_s == b.total_s
    assert a.compute_s.tobytes() == b.compute_s.tobytes()
    assert a.sent_bytes.tobytes() == b.sent_bytes.tobytes()
    assert a.recv_bytes.tobytes() == b.recv_bytes.tobytes()
    assert a.sync_s == b.sync_s


def test_aggregate_per_rank_reductions():
    prog = small_program()
    agg = prog.simulate()
    assert agg.compute_s.tolist() == [3.0, 3.5]
    assert agg.sent_bytes.tolist() == [64.0, 32.0]
    assert agg.recv_bytes.tolist() == [32.0, 64.0]
    assert agg.sync_s == 0.125
    assert agg.comm_bytes().tolist() == [96.0, 96.0]
    # Makespan: rank 1 computes 3.0, the rendezvous reply lands at
    # 3.25 on both ranks, the barrier adds 0.125, and rank 0's tail
    # compute adds 2.0.
    assert agg.total_s == 5.375


def test_program_counts_and_kinds():
    prog = small_program()
    assert len(prog) == prog.n_events == 9
    kinds = set(prog.kind.tolist())
    assert kinds == {KIND_COMPUTE, KIND_SEND, KIND_RECV, KIND_SYNC}
    assert prog.arena.dep_indptr[-1] == len(prog.arena.dep_indices)


def test_empty_stream_is_fine():
    prog = EventStreamBuilder(4).build()
    assert prog.n_events == 0
    agg = prog.simulate()
    assert agg.total_s == 0.0
    assert agg.compute_s.tolist() == [0.0] * 4


def test_builder_validation():
    with pytest.raises(Exception):
        EventStreamBuilder(0)
    b = EventStreamBuilder(2)
    with pytest.raises(ValidationError):
        b.compute(2, 1.0)  # rank out of range
    with pytest.raises(ValidationError):
        b.message(1, 1, 8.0, 0.1)  # self-message
    with pytest.raises(Exception):
        b.compute(0, -1.0)
    with pytest.raises(Exception):
        b.message(0, 1, -8.0, 0.1)


def test_unknown_engine_rejected():
    """One sweep: finish_times and simulate take no engine."""
    prog = small_program()
    with pytest.raises(TypeError):
        prog.finish_times("ranks")
    with pytest.raises(TypeError):
        prog.simulate("ranks")


# ---- batch semantics ----------------------------------------------------


def deps(prog, eid):
    ptr = prog.arena.dep_indptr
    return prog.arena.dep_indices[ptr[eid] : ptr[eid + 1]].tolist()


def columns(prog):
    return [
        a.tobytes()
        for a in (
            prog.kind,
            prog.rank,
            prog.peer,
            prog.nbytes,
            prog.durations,
            prog.arena.dep_indptr,
            prog.arena.dep_indices,
        )
    ]


def test_ring_shift_batch_chains_repeated_ranks():
    # Every rank sends and receives in one batch: each event must chain
    # on the previous occurrence of its rank *within* the batch.
    b = EventStreamBuilder(3)
    ids = b.messages([0, 1, 2], [1, 2, 0], 8.0, [0.5, 0.25, 0.125])
    assert ids.tolist() == [[0, 1], [2, 3], [4, 5]]
    prog = b.build()
    assert deps(prog, 0) == []  # send 0->1: rank 0 idle
    assert deps(prog, 1) == [0]  # recv on 1: just its send
    assert deps(prog, 2) == [1]  # send 1->2 waits for rank 1's recv
    assert deps(prog, 3) == [2]
    assert deps(prog, 4) == [3]  # send 2->0 waits for rank 2's recv
    assert deps(prog, 5) == [0, 4]  # recv on 0: rank 0's send, then wire
    scalar = EventStreamBuilder(3)
    for s, d, t in ((0, 1, 0.5), (1, 2, 0.25), (2, 0, 0.125)):
        scalar.message(s, d, 8.0, t)
    assert columns(prog) == columns(scalar.build())


def test_successive_bcast_rounds_in_one_batch():
    # Binomial rounds 0->1, then 0->2 and 1->3: rank 1 forwards only
    # after its receive, rank 0's second send follows its first.
    b = EventStreamBuilder(4)
    b.messages([0, 0, 1], [1, 2, 3], 64.0, 1.0)
    prog = b.build()
    assert deps(prog, 2) == [0]  # second send from rank 0
    assert deps(prog, 4) == [1]  # rank 1 forwards after receiving
    assert prog.finish_times().tolist() == [1.0, 1.0, 2.0, 2.0, 2.0, 2.0]


def test_rendezvous_dependency_order():
    b = EventStreamBuilder(2)
    c0 = b.compute(0, 1.0)
    c1 = b.compute(1, 2.0)
    (send, recv), = b.messages([0], [1], 8.0, 0.5, rendezvous=[True])
    prog = b.build()
    assert deps(prog, send) == [c0, c1]  # own head, then the handshake
    assert deps(prog, recv) == [c1, send]  # receiver's head, then the wire


def test_mixed_protocols_in_one_batch():
    b = EventStreamBuilder(3)
    b.compute(2, 1.0)
    ids = b.messages([0, 1], [2, 2], 8.0, 0.5, rendezvous=[False, True])
    prog = b.build()
    assert deps(prog, ids[0, 0]) == []  # eager: no handshake
    assert deps(prog, ids[1, 0]) == [ids[0, 1]]  # waits on rank 2's recv


def test_empty_batches_are_noops():
    b = EventStreamBuilder(3)
    b.compute(1, 1.0)
    before = columns(b.build())
    assert b.computes([], []).size == 0
    assert b.mark_recvs([], []).size == 0
    assert b.messages([], [], 8.0, 0.5).shape == (0, 2)
    assert len(b) == 1
    assert columns(b.build()) == before


@pytest.mark.parametrize(
    "bad",
    [
        lambda b: b.computes([0, 3], [1.0, 1.0]),  # rank out of range
        lambda b: b.computes([-1], [1.0]),
        lambda b: b.computes([0, 1], [1.0, -1.0]),  # negative seconds
        lambda b: b.computes([0], [math.nan]),
        lambda b: b.messages([0, 1], [1, 1], 8.0, 0.5),  # self-message
        lambda b: b.messages([0], [3], 8.0, 0.5),
        lambda b: b.messages([0, 1], [1, 2], [8.0, -8.0], 0.5),
        lambda b: b.messages([0, 1], [1, 2], 8.0, [0.5, math.nan]),
        lambda b: b.messages([0, 1], [1, 2], math.nan, 0.5),
        lambda b: b.mark_recvs([0, 2], [math.nan, 1.0]),
        lambda b: b.barrier(math.nan),
    ],
)
def test_failed_batch_leaves_builder_untouched(bad):
    def seeded():
        b = EventStreamBuilder(3)
        b.compute(0, 1.0)
        b.message(0, 1, 8.0, 0.5)
        return b

    b = seeded()
    with pytest.raises(ValidationError):
        bad(b)
    # Same stream and same chain heads as a builder that never saw it.
    ref = seeded()
    for builder in (b, ref):
        builder.computes([0, 1, 2], 1.0)
    assert columns(b.build()) == columns(ref.build())


def test_nan_duration_rejected_before_engines_diverge():
    # A NaN duration used to be accepted and the engines then disagreed
    # on the finish times downstream of it.
    b = EventStreamBuilder(2)
    b.compute(0, 1.0)
    with pytest.raises(ValidationError, match="nan"):
        b.message(0, 1, 8.0, math.nan)
    with pytest.raises(ValidationError, match="nan"):
        b.compute(1, math.nan)


def test_random_batches_match_scalar_appends():
    # Any batch equals the same events appended one at a time, by the
    # scalar reference builder.
    rng = np.random.default_rng(7)
    ranks = 5
    batched, scalar = EventStreamBuilder(ranks), ReferenceEventBuilder(ranks)
    for _ in range(60):
        op = rng.integers(4)
        m = int(rng.integers(0, 6))
        if op == 0:
            rs, secs = rng.integers(0, ranks, m), rng.random(m)
            batched.computes(rs, secs)
            for r, t in zip(rs, secs):
                scalar.compute(int(r), float(t))
        elif op == 1:
            src = rng.integers(0, ranks, m)
            dst = (src + rng.integers(1, ranks, m)) % ranks
            nb, dur, rdv = rng.random(m) * 64, rng.random(m), rng.random(m) < 0.5
            batched.messages(src, dst, nb, dur, rdv)
            for args in zip(src, dst, nb, dur, rdv):
                scalar.message(int(args[0]), int(args[1]), *map(float, args[2:4]), bool(args[4]))
        elif op == 2:
            rs, nb = rng.integers(0, ranks, m), rng.random(m) * 64
            batched.mark_recvs(rs, nb)
            for r, x in zip(rs, nb):
                scalar.mark_recv(int(r), float(x))
        else:
            t = float(rng.random())
            batched.barrier(t)
            scalar.barrier(t)
    a, b = batched.build(), scalar.build()
    assert columns(a) == columns(b)
    assert a.finish_times().tobytes() == reference_finish_times(a).tobytes()
