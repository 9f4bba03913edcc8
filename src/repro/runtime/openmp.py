"""OpenMP-like task-graph construction API.

The paper's Strassen is "implemented using untied OpenMP tasks" and its
CAPS DFS phase "using OpenMP work sharing" (§IV-C).  This module gives
the workloads the same vocabulary — ``task``, ``taskwait``,
``parallel_for``, ``sections``, ``single``, ``barrier`` — but instead
of executing, each construct *appends rows to a*
:class:`~repro.runtime.arena.TaskArena` (through
:meth:`TemplateBuilder.emit`, the call the dense lowerings use) that
the simulated scheduler then runs.  Every construct returns the integer
id of the task it appended; a task's ``compute`` closure is kept in the
tid-indexed :attr:`OpenMP.computes` list beside the arena, for a
numerics run (:func:`repro.runtime.replay.replay`).

Example::

    omp = OpenMP("strassen", num_threads=4)
    pre  = omp.task("pre-add", add_cost, compute=do_adds)
    muls = [omp.task(f"mul{i}", mul_cost, deps=[pre]) for i in range(7)]
    done = omp.taskwait(muls)
    post = omp.task("post-add", add_cost, deps=[done])
    schedule = Scheduler(machine, threads=4).run(omp.graph)
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence

from ..util.errors import ConfigurationError, SchedulingError
from ..util.validation import require_positive
from .arena import NO_CREATOR, NameInterner, TaskArena, TemplateBuilder
from .cost import ZERO_COST, TaskCost

__all__ = ["OpenMP", "omp_num_threads"]


def omp_num_threads(default: int = 1, environ: dict | None = None) -> int:
    """Thread count from ``OMP_NUM_THREADS``, as the paper's §VI-A runs
    were configured ("thread counts were instantiated using the
    OMP_NUM_THREADS environment variable")."""
    env = environ if environ is not None else os.environ
    raw = env.get("OMP_NUM_THREADS")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"OMP_NUM_THREADS={raw!r} is not an integer") from exc
    require_positive(value, "OMP_NUM_THREADS")
    return value


class OpenMP:
    """Region builder producing a :class:`TaskArena`.

    Parameters
    ----------
    name:
        Name of the underlying arena.
    num_threads:
        The parallel region's width.  ``parallel_for`` splits iteration
        spaces into this many chunks (static schedule), mirroring OpenMP
        work sharing.
    """

    def __init__(self, name: str, num_threads: int = 1):
        require_positive(num_threads, "num_threads")
        self.name = name
        self.num_threads = num_threads
        #: Compute closure (or ``None``) of every task, by tid.
        self.computes: list[Callable[[], None] | None] = []
        self._builder = TemplateBuilder(NameInterner())
        self._has_successor: list[bool] = []
        self._arena: TaskArena | None = None

    @property
    def graph(self) -> TaskArena:
        """The tasks appended so far, as an arena."""
        if self._arena is None or len(self._arena) != len(self.computes):
            self._arena = self._builder.to_arena(self.name)
        return self._arena

    # ---- tasking -------------------------------------------------------

    def task(
        self,
        name: str,
        cost: TaskCost = ZERO_COST,
        deps: Iterable[int] = (),
        compute: Callable[[], None] | None = None,
        untied: bool = True,
        created_by: int | None = None,
    ) -> int:
        """``#pragma omp task`` — one deferred unit of work.  Every
        dependency must name an already-appended task."""
        tid = len(self.computes)
        deps = [int(d) for d in deps]
        for d in deps:
            if not 0 <= d < tid:
                raise SchedulingError(
                    f"task {name!r} depends on unknown/future task id {d}"
                )
        for d in deps:
            self._has_successor[d] = True
        creator = NO_CREATOR if created_by is None else int(created_by)
        self._builder.emit(name, cost, deps, creator, untied)
        self.computes.append(compute)
        self._has_successor.append(False)
        return tid

    def taskwait(self, tasks: Iterable[int], name: str = "taskwait") -> int:
        """``#pragma omp taskwait`` — zero-cost join over *tasks*."""
        return self.task(name, ZERO_COST, tasks)

    def barrier(self, name: str = "barrier") -> int:
        """Implicit/explicit barrier: join over every current sink."""
        sinks = [t for t, has in enumerate(self._has_successor) if not has]
        return self.task(name, ZERO_COST, sinks)

    # ---- work sharing ----------------------------------------------------

    def parallel_for(
        self,
        name: str,
        total_cost: TaskCost,
        deps: Iterable[int] = (),
        chunks: int | None = None,
        chunk_computes: Sequence[Callable[[], None] | None] | None = None,
        join: bool = True,
    ) -> int | list[int]:
        """``#pragma omp parallel for`` with a static schedule.

        *total_cost* is divided evenly over ``chunks`` tasks (default:
        one per thread).  When *chunk_computes* is given it must have one
        closure per chunk.  Returns the join task (default) or the chunk
        list when ``join=False``.
        """
        k = chunks if chunks is not None else self.num_threads
        require_positive(k, "chunks")
        if chunk_computes is not None and len(chunk_computes) != k:
            raise ConfigurationError(
                f"parallel_for {name!r}: {len(chunk_computes)} computes for {k} chunks"
            )
        deps = list(deps)
        per_chunk = total_cost.scaled(1.0 / k)
        tasks = [
            self.task(
                f"{name}[{i}]",
                per_chunk,
                deps,
                chunk_computes[i] if chunk_computes else None,
            )
            for i in range(k)
        ]
        if not join:
            return tasks
        return self.taskwait(tasks, f"{name}/join")

    def sections(
        self,
        name: str,
        section_costs: Sequence[TaskCost],
        deps: Iterable[int] = (),
        computes: Sequence[Callable[[], None] | None] | None = None,
    ) -> int:
        """``#pragma omp sections`` — heterogeneous parallel blocks with
        an implicit join."""
        if computes is not None and len(computes) != len(section_costs):
            raise ConfigurationError(
                f"sections {name!r}: computes/costs length mismatch"
            )
        deps = list(deps)
        tasks = [
            self.task(
                f"{name}/sec{i}",
                cost,
                deps,
                computes[i] if computes else None,
            )
            for i, cost in enumerate(section_costs)
        ]
        return self.taskwait(tasks, f"{name}/join")

    def single(
        self,
        name: str,
        cost: TaskCost,
        deps: Iterable[int] = (),
        compute: Callable[[], None] | None = None,
    ) -> int:
        """``#pragma omp single`` — one thread executes, others wait (a
        plain sequential task in the graph model)."""
        return self.task(name, cost, deps, compute)
