"""Numerics as a replay of a finished schedule.

Simulation prices task costs only: no event kernel ever runs numerics,
so every study cell simulates its cost-only arena.  A run that checks
its numerics runs them afterwards, over the same DAG.

:func:`check_order` is the one guard every replay passes: the
schedule's start order
(:meth:`~repro.runtime.scheduler.Schedule.start_order`) must be a
linear extension of the simulated arena (a permutation of its task ids
that runs every task after its dependencies), tested with one
vectorized position comparison over the arena's dependency CSR.  A
violation raises :class:`~repro.util.errors.SchedulingError` before
anything runs.  The dense algorithms run a numerics program stamped
from their lowering templates
(:meth:`~repro.algorithms.base.MatmulAlgorithm.check_numerics`) in
:func:`depth_first_order`, which for a race-free DAG yields the same
bits as the start order in far less temporary storage.  The workloads
built with the :class:`~repro.runtime.openmp.OpenMP` region builder
(sparse kernels, block LU) keep a ``compute`` closure per task beside
their arena and go through :func:`replay` and :func:`replay_numerics`
in the start order.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..observability import trace
from ..util.errors import SchedulingError
from .arena import TaskArena

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .scheduler import Schedule

__all__ = ["check_order", "depth_first_order", "replay", "replay_numerics"]


def check_order(arena: TaskArena, order: Sequence[int]) -> None:
    """Raise :class:`SchedulingError` unless *order* is a linear
    extension of *arena*: a permutation of its task ids in which every
    dependency comes before its dependent."""
    n = len(arena)
    pos_of = np.asarray(order, dtype=np.int64)
    if len(pos_of) != n:
        raise SchedulingError(f"replay order has {len(pos_of)} entries for {n} tasks")
    if n == 0:
        return
    if pos_of.min() < 0 or pos_of.max() >= n:
        raise SchedulingError(f"replay order names a task outside 0..{n - 1}")
    names = arena.names
    ids = arena.name_ids
    counts = np.bincount(pos_of, minlength=n)
    if np.any(counts > 1):
        tid = int(pos_of[np.flatnonzero(counts[pos_of] > 1)[0]])
        raise SchedulingError(f"replay order runs {names[ids[tid]]!r} twice")
    pos = np.empty(n, dtype=np.int64)
    pos[pos_of] = np.arange(n, dtype=np.int64)
    owners = np.repeat(np.arange(n, dtype=np.int64), arena.dep_counts)
    late = np.flatnonzero(pos[arena.dep_indices] >= pos[owners])
    if len(late):
        # Report the violation the order reaches first.
        edge = late[np.argmin(pos[owners[late]])]
        task, dep = int(owners[edge]), int(arena.dep_indices[edge])
        raise SchedulingError(
            f"replay order runs {names[ids[task]]!r} before its "
            f"dependency {names[ids[dep]]!r}"
        )


def depth_first_order(arena: TaskArena) -> list[int]:
    """The canonical depth-first linear extension of *arena*: Kahn's
    algorithm, always running the highest ready task id first.

    The lowerings number tasks in recursion order, so the highest ready
    id belongs to the newest subproblem: the order finishes one branch
    of the recursion before it opens the next, as a depth-first
    traversal does, and only the temporaries of the branches on the
    current path are live at once.  It depends on the DAG alone, so
    every cell that shares a DAG runs its numerics in the same order.
    An arena with a cycle yields fewer than ``len(arena)`` ids."""
    sptr, sidx = arena.successors_csr()
    ptr, succ = sptr.tolist(), sidx.tolist()
    indeg = arena.dep_counts.tolist()
    ready = [-t for t, d in enumerate(indeg) if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        tid = -heapq.heappop(ready)
        order.append(tid)
        for nxt in succ[ptr[tid] : ptr[tid + 1]]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, -nxt)
    return order


def replay(
    arena: TaskArena,
    computes: Sequence[Callable[[], None] | None],
    order: Sequence[int],
) -> None:
    """Run the tid-indexed *computes* closures of *arena* in *order*
    (task ids), after :func:`check_order`.  Raises
    :class:`SchedulingError` when *computes* does not hold one entry
    per task or the order is not a linear extension of *arena*."""
    if len(computes) != len(arena):
        raise SchedulingError(
            f"replay has {len(computes)} closures for the "
            f"{len(arena)} tasks of {arena.name!r}"
        )
    check_order(arena, order)
    for tid in order:
        compute = computes[tid]
        if compute is not None:
            compute()


def replay_numerics(lower: Callable[[], object], schedule: "Schedule", **attrs):
    """Check a simulated run's numerics; returns the build's ``verify()``.

    *lower* returns a fresh executed build (an arena ``graph``, its
    ``computes`` closures and operands, plus ``verify``).  It is called
    and replayed in *schedule*'s start order under a ``numerics`` span,
    then verified under a ``verify`` span; *attrs* label both spans.
    """
    with trace.span("numerics", **attrs):
        executed = lower()
        replay(executed.graph, executed.computes, schedule.start_order())
    with trace.span("verify", **attrs):
        return executed.verify()
