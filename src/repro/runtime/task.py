"""Tasks and task graphs.

A :class:`TaskGraph` is the intermediate representation every algorithm
in :mod:`repro.algorithms` lowers to: a DAG of :class:`Task` nodes, each
carrying a :class:`~repro.runtime.cost.TaskCost` and (optionally) a
``compute`` closure that performs the real numpy numerics when a
verified run replays the schedule (:mod:`repro.runtime.replay`).

The graph validates itself (no unknown dependencies, no cycles) and can
compute structural metrics — total work, critical path, average
parallelism — that the tests use to bound scheduler behaviour (Graham's
bound, DESIGN §5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..util.errors import SchedulingError, ValidationError
from .cost import ZERO_COST, TaskCost

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
        Schedulers never call it; :func:`repro.runtime.replay.replay`
        runs the closures in a finished schedule's start order.
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
        self.validate()
        finish = [0.0] * len(self.tasks)
        for t in self.tasks:
            start = max((finish[d] for d in t.deps), default=0.0)
            finish[t.tid] = start + duration_fn(t)
        value = max(finish, default=0.0)
        self._metrics_memo[key] = (*refs, value)
        return value

    def average_parallelism(self, duration_fn: Callable[[Task], float]) -> float:
        """T1 / T_inf — the DAG's inherent parallelism."""
        cp = self.critical_path_seconds(duration_fn)
        if cp == 0:
            return float("inf") if len(self.tasks) else 0.0
        return self.total_work_seconds(duration_fn) / cp

    # ---- columnar bridge ------------------------------------------------

    def to_arena(self) -> "TaskArena":  # noqa: F821 - deferred import
        """Columnar (SoA/CSR) snapshot of this graph — see
        :class:`repro.runtime.arena.TaskArena`.  Compute closures are
        dropped; the arena is cost-only by construction."""
        from .arena import TaskArena

        return TaskArena.from_graph(self)

    @staticmethod
    def from_arena(arena: "TaskArena") -> "TaskGraph":  # noqa: F821
        """Inflate a columnar arena back into an object graph (the
        reference engine's input shape).  Inverse of :meth:`to_arena`
        up to compute closures, which arenas never carry."""
        return arena.to_graph()

    # ---- serialization / export ----------------------------------------

    def to_dict(self) -> dict:
        """A JSON-able dump of the graph's structure and costs.

        Compute closures are not serializable and are dropped; a
        round-tripped graph is cost-only.
        """
        return {
            "name": self.name,
            "tasks": [
                {
                    "name": t.name,
                    "deps": list(t.deps),
                    "untied": t.untied,
                    "created_by": t.created_by,
                    "cost": {
                        "flops": t.cost.flops,
                        "efficiency": t.cost.efficiency,
                        "bytes_l1": t.cost.bytes_l1,
                        "bytes_l2": t.cost.bytes_l2,
                        "bytes_l3": t.cost.bytes_l3,
                        "bytes_dram": t.cost.bytes_dram,
                    },
                }
                for t in self.tasks
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "TaskGraph":
        """Rebuild a (cost-only) graph from :meth:`to_dict` output."""
        graph = TaskGraph(data.get("name", "graph"))
        for entry in data["tasks"]:
            graph.add(
                entry["name"],
                TaskCost(**entry["cost"]),
                deps=entry["deps"],
                untied=entry.get("untied", True),
                created_by=entry.get("created_by"),
            )
        graph.validate()
        return graph

    def to_dot(self, max_tasks: int = 500) -> str:
        """Graphviz DOT rendering of the DAG (debugging aid).

        Refuses graphs beyond *max_tasks* nodes — DOT output of a
        100k-task Strassen lowering helps nobody.
        """
        if len(self.tasks) > max_tasks:
            raise ValidationError(
                f"graph has {len(self.tasks)} tasks; raise max_tasks "
                f"(currently {max_tasks}) to render it anyway"
            )
        lines = [f'digraph "{self.name}" {{', "  rankdir=TB;"]
        for t in self.tasks:
            shape = "ellipse" if not t.cost.is_zero else "diamond"
            label = f"{t.name}\\n{t.cost.flops:.3g} flop"
            lines.append(f'  t{t.tid} [label="{label}", shape={shape}];')
        for t in self.tasks:
            for d in t.deps:
                lines.append(f"  t{d} -> t{t.tid};")
        lines.append("}")
        return "\n".join(lines)

    def counts_by_prefix(self) -> dict[str, int]:
        """Task counts grouped by the name component before '/'. Useful
        for asserting algorithm structure in tests."""
        out: dict[str, int] = {}
        for t in self.tasks:
            key = t.name.split("/", 1)[0]
            out[key] = out.get(key, 0) + 1
        return out
