"""Numerics as a replay of a finished schedule.

Simulation prices task costs only: no event kernel ever calls a
``compute`` closure, so every study cell simulates its cost-only arena.
A run that checks its numerics lowers the executed object graph
separately and replays its closures here, in the schedule's start order
(:meth:`~repro.runtime.scheduler.Schedule.start_order`).  The product
is thus still computed by running the DAG in the order the simulated
machine ran it.

:func:`replay` is the checked core.  The executed graph must match the
simulated one task for task (same length and names), and every task's
dependencies must have run before it; either defect raises
:class:`~repro.util.errors.SchedulingError` instead of producing a
wrong result.  :func:`replay_numerics` is the one entry point the study
cell, the measurement protocol and the sparse study share: lower,
replay, verify.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from ..observability import trace
from ..util.errors import SchedulingError
from .arena import TaskArena

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .scheduler import Schedule
    from .task import TaskGraph

__all__ = ["replay", "replay_numerics"]


def _names(graph: "TaskGraph | TaskArena") -> list[str]:
    if isinstance(graph, TaskArena):
        return graph.names_list()
    return [task.name for task in graph.tasks]


def replay(
    graph: "TaskGraph",
    order: Sequence[int],
    simulated: "TaskGraph | TaskArena | None" = None,
) -> None:
    """Run *graph*'s ``compute`` closures in *order* (task ids).

    *simulated*, when given, is the graph the schedule was made from;
    *graph* must match it task for task.  Raises
    :class:`SchedulingError` when *graph* is a cost-only arena, when the
    graphs differ, when *order* is not a permutation of the task ids,
    or when it runs a task before one of its dependencies.
    """
    if isinstance(graph, TaskArena):
        raise SchedulingError(
            f"graph {graph.name!r} is a TaskArena (cost-only, no compute "
            f"closures); replay the executed object lowering"
        )
    tasks = graph.tasks
    n = len(tasks)
    if simulated is not None:
        want = _names(simulated)
        if len(want) != n:
            raise SchedulingError(
                f"executed graph {graph.name!r} has {n} tasks but the "
                f"simulated graph has {len(want)}"
            )
        got = _names(graph)
        if got != want:
            tid = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            raise SchedulingError(
                f"executed graph {graph.name!r} differs from the simulated "
                f"graph at task {tid}: {got[tid]!r} vs {want[tid]!r}"
            )
    if len(order) != n:
        raise SchedulingError(
            f"replay order has {len(order)} entries for {n} tasks"
        )
    done = bytearray(n)
    for tid in order:
        task = tasks[tid]
        if done[tid]:
            raise SchedulingError(f"replay order runs {task.name!r} twice")
        for dep in task.deps:
            if not done[dep]:
                raise SchedulingError(
                    f"replay order runs {task.name!r} before its "
                    f"dependency {tasks[dep].name!r}"
                )
        if task.compute is not None:
            task.compute()
        done[tid] = 1


def replay_numerics(
    lower: Callable[[], object],
    schedule: "Schedule",
    simulated: "TaskGraph | TaskArena | None" = None,
    **attrs,
):
    """Check a simulated run's numerics; returns the build's ``verify()``.

    *lower* returns a fresh executed build (an object graph with
    closures and operands, plus ``verify``).  It is called and replayed
    in *schedule*'s start order under a ``numerics`` span, then verified
    under a ``verify`` span; *attrs* label both spans.
    """
    with trace.span("numerics", **attrs):
        executed = lower()
        replay(executed.graph, schedule.start_order(), simulated)
    with trace.span("verify", **attrs):
        return executed.verify()
