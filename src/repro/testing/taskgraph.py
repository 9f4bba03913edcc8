"""Object task graphs: the oracle twin of the columnar arena.

Every lowering in :mod:`repro` emits a
:class:`~repro.runtime.arena.TaskArena`.  A :class:`TaskGraph` is the
same DAG one :class:`Task` object at a time, with scalar structural
metrics (total work, critical path, average parallelism).  The
property harness generates random DAGs in this shape, and the oracles
compare the arena's vectorized metrics and lowerings against it;
:meth:`TaskGraph.to_arena` and :meth:`TaskGraph.from_arena` convert
between the two, bit for bit.

The graph validates itself (no unknown dependencies, no cycles).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from ..runtime.arena import (
    _COST_FIELDS,
    NO_CREATOR,
    NameInterner,
    TaskArena,
    TemplateBuilder,
)
from ..runtime.cost import ZERO_COST, TaskCost
from ..util.errors import SchedulingError, ValidationError

__all__ = ["Task", "TaskGraph"]


@dataclass
class Task:
    """One schedulable unit of work.

    Attributes
    ----------
    tid:
        Dense integer id assigned by the owning graph (creation order).
    name:
        Diagnostic label ("strassen/mul[3,1]", "blocked/tile(2,5)").
    cost:
        Resource demands; zero-cost tasks act as joins/barriers.
    deps:
        Ids of tasks that must complete first.
    compute:
        Optional zero-argument closure performing the real numerics.
        Schedulers never call it; a numerics run calls the closures
        of a graph's builder (see :func:`repro.runtime.replay.replay`).
    untied:
        OpenMP ``untied`` semantics: the simulated scheduler may start
        the task on any core regardless of which core created it.  Tied
        tasks prefer their creator's core when it is free.
    created_by:
        tid of the task whose compute region spawned this one, if any
        (used for tied-task placement affinity).
    """

    tid: int
    name: str
    cost: TaskCost = ZERO_COST
    deps: tuple[int, ...] = ()
    compute: Callable[[], None] | None = None
    untied: bool = True
    created_by: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.tid}, {self.name!r})"


class TaskGraph:
    """A growing DAG of tasks.

    Dependencies must reference already-added tasks, which makes cycles
    impossible *during construction*; :meth:`validate` re-checks the
    invariants wholesale for graphs assembled by generic code.
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self.tasks: list[Task] = []
        self._successors: list[list[int]] = []
        # Metric memo: (metric, id(func), id(owner)) -> (func, owner, value).
        # The strong refs to func/owner keep the ids from being recycled
        # while the entry lives; :meth:`add` clears the dict wholesale.
        self._metrics_memo: dict[tuple, tuple] = {}

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def task(self, tid: int) -> Task:
        """Fetch a task by id."""
        if not (0 <= tid < len(self.tasks)):
            raise ValidationError(f"no task with id {tid}")
        return self.tasks[tid]

    def add(
        self,
        name: str,
        cost: TaskCost = ZERO_COST,
        deps: Iterable[int | Task] = (),
        compute: Callable[[], None] | None = None,
        untied: bool = True,
        created_by: int | Task | None = None,
    ) -> Task:
        """Append a task; *deps* may be ids or :class:`Task` objects."""
        tid = len(self.tasks)
        if deps:
            # List-comprehension (no generator frame) — this method is
            # the lowering hot path, called once per task.
            dep_ids = tuple(
                [d.tid if isinstance(d, Task) else int(d) for d in deps]
            )
            for d in dep_ids:
                if not (0 <= d < tid):
                    raise SchedulingError(
                        f"task {name!r} depends on unknown/future task id {d}"
                    )
        else:
            dep_ids = ()
        creator = created_by.tid if isinstance(created_by, Task) else created_by
        task = Task(tid, name, cost, dep_ids, compute, untied, creator)
        self._validated = False
        if self._metrics_memo:
            self._metrics_memo.clear()
        self.tasks.append(task)
        self._successors.append([])
        for d in dep_ids:
            self._successors[d].append(tid)
        return task

    def join(self, name: str, deps: Iterable[int | Task]) -> Task:
        """Add a zero-cost synchronization node over *deps*."""
        return self.add(name, ZERO_COST, deps)

    def successors(self, tid: int) -> list[int]:
        """Tasks depending on *tid*."""
        return list(self._successors[tid])

    def sources(self) -> list[Task]:
        """Tasks with no dependencies."""
        return [t for t in self.tasks if not t.deps]

    def sinks(self) -> list[Task]:
        """Tasks nothing depends on."""
        return [t for t in self.tasks if not self._successors[t.tid]]

    #: Memo flag for :meth:`validate` (class default; instances flip it).
    _validated = False

    def validate(self) -> None:
        """Check the DAG invariants; raise :class:`SchedulingError` if
        the graph is cyclic or malformed.

        Memoized: :meth:`add` clears the flag, so repeated runs of an
        unchanged graph (protocol repeats, benchmarks) validate once.
        """
        if self._validated:
            return
        n = len(self.tasks)
        indeg = [len(t.deps) for t in self.tasks]
        queue = deque(t.tid for t in self.tasks if indeg[t.tid] == 0)
        seen = 0
        while queue:
            tid = queue.popleft()
            seen += 1
            for succ in self._successors[tid]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    queue.append(succ)
        if seen != n:
            raise SchedulingError(
                f"task graph {self.name!r} contains a cycle "
                f"({n - seen} tasks unreachable)"
            )
        self._validated = True

    def topological_order(self) -> list[Task]:
        """Tasks in a dependency-respecting order (creation order is one,
        by construction; returned explicitly for generic consumers)."""
        self.validate()
        return list(self.tasks)

    # ---- structural metrics -------------------------------------------

    def total_cost(self) -> TaskCost:
        """Sum of every task's demands (total work, Graham's T1)."""
        total = ZERO_COST
        for t in self.tasks:
            total = total + t.cost
        return total

    def _metric_key(self, metric: str, duration_fn) -> tuple[tuple, tuple]:
        """Memo key for (*metric*, *duration_fn*).

        Bound methods are re-created on every attribute access
        (``sched.uncontended_duration`` is a fresh object each time), so
        keying on ``id(duration_fn)`` alone would never hit.  Key on the
        underlying function and its owner instead — both stable — and
        return them too so the caller can store strong references
        (keeping the ids valid for the lifetime of the entry).
        """
        func = getattr(duration_fn, "__func__", duration_fn)
        owner = getattr(duration_fn, "__self__", None)
        return (metric, id(func), id(owner)), (func, owner)

    def total_work_seconds(self, duration_fn: Callable[[Task], float]) -> float:
        """T1: serial execution time under *duration_fn*.

        Memoized per (graph, duration_fn) — :meth:`add` invalidates.
        """
        key, refs = self._metric_key("total_work", duration_fn)
        hit = self._metrics_memo.get(key)
        if hit is not None:
            return hit[2]
        value = sum(duration_fn(t) for t in self.tasks)
        self._metrics_memo[key] = (*refs, value)
        return value

    def critical_path_seconds(self, duration_fn: Callable[[Task], float]) -> float:
        """T_inf: longest dependency chain under *duration_fn*.

        *duration_fn* maps a task to its uncontended duration; the engine
        provides one derived from the machine spec.

        Memoized per (graph, duration_fn) — :meth:`add` invalidates.
        """
        key, refs = self._metric_key("critical_path", duration_fn)
        hit = self._metrics_memo.get(key)
        if hit is not None:
            return hit[2]
        value = max(self.finish_times(duration_fn), default=0.0)
        self._metrics_memo[key] = (*refs, value)
        return value

    def finish_times(self, duration_fn: Callable[[Task], float]) -> list[float]:
        """Earliest finish of every task under *duration_fn*: the scalar
        forward sweep behind :meth:`critical_path_seconds`."""
        self.validate()
        finish = [0.0] * len(self.tasks)
        for t in self.tasks:
            start = max((finish[d] for d in t.deps), default=0.0)
            finish[t.tid] = start + duration_fn(t)
        return finish

    def average_parallelism(self, duration_fn: Callable[[Task], float]) -> float:
        """T1 / T_inf — the DAG's inherent parallelism."""
        cp = self.critical_path_seconds(duration_fn)
        if cp == 0:
            return float("inf") if len(self.tasks) else 0.0
        return self.total_work_seconds(duration_fn) / cp

    # ---- columnar bridge ------------------------------------------------

    def to_arena(self) -> TaskArena:
        """Columnize this graph (costs, deps, flags bit-for-bit).
        Compute closures are dropped; an arena is cost-only."""
        builder = TemplateBuilder(NameInterner())
        for t in self.tasks:
            creator = NO_CREATOR if t.created_by is None else t.created_by
            builder.emit(t.name, t.cost, t.deps, creator, t.untied)
        return builder.to_arena(self.name)

    @staticmethod
    def from_arena(arena: TaskArena) -> "TaskGraph":
        """Inflate *arena* into an object graph (cost-only: an arena
        carries no compute closures).  Inverse of :meth:`to_arena`."""
        arena.validate()
        graph = TaskGraph(arena.name)
        names = arena.names_list()
        columns = [getattr(arena, f).tolist() for f in _COST_FIELDS]
        untied = arena.untied.tolist()
        created = arena.created_by_list()
        for i, deps in enumerate(arena.deps_list()):
            cost = TaskCost(*(col[i] for col in columns))
            graph.add(names[i], cost, deps, None, untied[i], created[i])
        graph._validated = True
        return graph

    def counts_by_prefix(self) -> dict[str, int]:
        """Task counts grouped by the name component before '/'. Useful
        for asserting algorithm structure in tests."""
        out: dict[str, int] = {}
        for t in self.tasks:
            key = t.name.split("/", 1)[0]
            out[key] = out.get(key, 0) + 1
        return out
