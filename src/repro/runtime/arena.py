"""Structure-of-arrays task-graph arena with CSR dependencies.

A :class:`TaskArena` is the compact, columnar twin of
:class:`~repro.runtime.task.TaskGraph`: one interned name table plus a
handful of flat numpy arrays (cost columns, flags, and the dependency
lists in CSR form).  It exists because the *lowering* of the recursive
algorithms — not event simulation — dominated the paper's 48-cell
execution matrix after PR 1: a cold Strassen/CAPS build materializes
``O(7^d)`` Python ``Task`` objects and tuples per cell, while the DAG it
describes is exactly self-similar (Ballard et al.: the graph at size
``n`` is seven stamped copies of the graph at ``n/2`` plus ``O(1)``
add/join nodes).  The arena representation makes "stamp seven copies"
an array concatenation with a tid offset instead of a re-run of the
Python recursion.

Three layers live here:

* :class:`TaskArena` — the SoA/CSR container, with the structural
  metrics of ``TaskGraph`` (``total_work_seconds``,
  ``critical_path_seconds``, critical-policy priorities) re-implemented
  as vectorized topological *level sweeps* over the CSR arrays.  The
  sweeps are bit-identical to the scalar loops they replace: ``max`` is
  exact, the division/add expressions are written with the same
  operand order, and the per-level ``np.maximum.reduceat`` reduces the
  same operands the scalar ``max`` generator would.
* :class:`SubtreeTemplate` / :class:`TemplateBuilder` — relocatable
  sub-graph templates.  A template's dependency entries are either
  *local* (indices into the template itself) or the :data:`EXT_DEP`
  sentinel, which marks "splice the instantiation's external dependency
  list here"; ``created_by`` uses :data:`EXT_CREATOR` the same way.
  Stamping a template into a builder is pure array arithmetic
  (:func:`_stamp`): offset the local ids by the instantiation base,
  substitute the sentinels, fix up the per-row dependency counts.
* conversion — ``TaskArena.from_graph`` / ``TaskArena.to_graph`` (and
  the ``TaskGraph.to_arena()`` / ``from_arena()`` conveniences) map
  between the object and columnar worlds; ``to_graph`` is what the
  reference event kernel consumes when handed an arena, keeping the
  object path alive as the differential oracle.

Every study cell simulates an arena (no closures, no ``Task`` churn,
cheap to pickle across study workers); numerics come from the object
lowering, whose closures cannot be columnized, replayed in the arena's
schedule order (:mod:`repro.runtime.replay`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..util.errors import SchedulingError, ValidationError
from .cost import TaskCost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .shm import ArenaDescriptor, ArenaPool
    from .task import TaskGraph

__all__ = [
    "EXT_CREATOR",
    "EXT_DEP",
    "NO_CREATOR",
    "NameInterner",
    "SubtreeTemplate",
    "TaskArena",
    "TemplateBuilder",
]

#: Dependency-list sentinel: "splice the external dependency list of the
#: instantiation here".  A template row may carry it anywhere in its
#: dependency slice; stamping replaces it with 0, 1, or k >= 2 entries.
EXT_DEP = -1
#: ``created_by`` sentinel: "the instantiation's external creator".
EXT_CREATOR = -2
#: ``created_by`` value for "no creator" (``Task.created_by is None``).
NO_CREATOR = -1

#: Cost columns, in :class:`TaskCost` field order.
_COST_FIELDS = (
    "flops",
    "efficiency",
    "bytes_l1",
    "bytes_l2",
    "bytes_l3",
    "bytes_dram",
)


class NameInterner:
    """Bidirectional string <-> small-int table for task names.

    The recursive lowerings emit a handful of distinct names
    ("pre/2048", "leaf/64", ...) across hundreds of thousands of tasks;
    interning turns the name column into an ``int32`` array over a
    table of a few dozen strings.
    """

    __slots__ = ("names", "_ids")

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
        return nid

    def snapshot(self) -> tuple[str, ...]:
        return tuple(self.names)


def _gather_segments(
    ptr: np.ndarray, data_index: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather the CSR segments of *rows*.

    Returns ``(gathered, seg_starts, counts)``: the concatenated
    ``data_index`` entries of every row (in row order), the start offset
    of each row's segment inside ``gathered``, and the per-row counts.
    """
    counts = ptr[rows + 1] - ptr[rows]
    total = int(counts.sum())
    seg_starts = np.zeros(len(rows), dtype=np.int64)
    np.cumsum(counts[:-1], out=seg_starts[1:]) if len(rows) > 1 else None
    pos = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, counts)
    gidx = np.repeat(ptr[rows], counts) + pos
    return data_index[gidx], seg_starts, counts


def _level_order(
    n: int,
    in_ptr: np.ndarray,
    out_ptr: np.ndarray,
    out_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Longest-path level decomposition of a DAG.

    ``in_ptr`` describes each node's incoming edge counts (readiness),
    ``(out_ptr, out_idx)`` the outgoing adjacency used for propagation.
    Returns ``(order, level_ptr)``: node ids grouped by level (level of
    a node = length of the longest incoming path), and the boundaries of
    each level inside ``order``.  Kahn's algorithm processed in whole
    frontier rounds yields exactly these levels.
    """
    indeg = (in_ptr[1:] - in_ptr[:-1]).copy()
    order = np.empty(n, dtype=np.int64)
    level_ptr = [0]
    frontier = np.flatnonzero(indeg == 0)
    filled = 0
    while frontier.size:
        order[filled : filled + frontier.size] = frontier
        filled += frontier.size
        level_ptr.append(filled)
        succ, _, _ = _gather_segments(out_ptr, out_idx, frontier)
        if succ.size == 0:
            break
        dec = np.bincount(succ, minlength=n)
        before = indeg[succ]  # touched nodes only (cheap check below)
        indeg -= dec
        touched = np.unique(succ)
        frontier = touched[indeg[touched] == 0]
        del before
    if filled != n:
        raise SchedulingError(
            f"task arena contains a cycle ({n - filled} tasks unreachable)"
        )
    return order, np.asarray(level_ptr, dtype=np.int64)


class TaskArena:
    """A task graph as structure-of-arrays columns + CSR dependencies.

    Immutable by convention: every consumer treats the arrays as
    read-only (the event kernels cache their plan bundle on the
    instance, see :mod:`repro.runtime.plans`).  Derived structures
    (successor CSR, level order, resolved name lists) are cached under
    ``_c_*`` attributes and dropped on pickling.
    """

    def __init__(
        self,
        name: str,
        names: tuple[str, ...],
        name_ids: np.ndarray,
        cost_columns: dict[str, np.ndarray],
        untied: np.ndarray,
        created_by: np.ndarray,
        dep_indptr: np.ndarray,
        dep_indices: np.ndarray,
    ):
        self.name = name
        self.names = names
        self.name_ids = np.ascontiguousarray(name_ids, dtype=np.int32)
        for field in _COST_FIELDS:
            setattr(
                self,
                field,
                np.ascontiguousarray(cost_columns[field], dtype=np.float64),
            )
        self.untied = np.ascontiguousarray(untied, dtype=bool)
        self.created_by = np.ascontiguousarray(created_by, dtype=np.int64)
        self.dep_indptr = np.ascontiguousarray(dep_indptr, dtype=np.int64)
        self.dep_indices = np.ascontiguousarray(dep_indices, dtype=np.int64)
        self._validated = False

    # ---- basic shape ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.name_ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskArena({self.name!r}, tasks={len(self)}, "
            f"deps={len(self.dep_indices)})"
        )

    @property
    def dep_counts(self) -> np.ndarray:
        """Per-task dependency counts (``diff`` of the CSR indptr)."""
        out = getattr(self, "_c_dep_counts", None)
        if out is None:
            out = self.dep_indptr[1:] - self.dep_indptr[:-1]
            self._c_dep_counts = out
        return out

    @property
    def nbytes(self) -> int:
        """Resident bytes of the column arrays (names table excluded —
        it is a few dozen shared strings)."""
        total = (
            self.name_ids.nbytes
            + self.untied.nbytes
            + self.created_by.nbytes
            + self.dep_indptr.nbytes
            + self.dep_indices.nbytes
        )
        for field in _COST_FIELDS:
            total += getattr(self, field).nbytes
        return total

    # ---- validation ----------------------------------------------------

    def validate(self) -> None:
        """Check the CSR invariants; every dependency must point at a
        *lower* tid, which rules out cycles wholesale (the same
        by-construction property ``TaskGraph.add`` enforces row by
        row).  Memoized — arenas are immutable."""
        if self._validated:
            return
        n = len(self)
        ptr = self.dep_indptr
        if len(ptr) != n + 1 or ptr[0] != 0 or int(ptr[-1]) != len(self.dep_indices):
            raise ValidationError(
                f"arena {self.name!r}: malformed dep_indptr "
                f"(len {len(ptr)} for {n} tasks, ends at {int(ptr[-1]) if len(ptr) else '-'})"
            )
        if n and np.any(ptr[1:] < ptr[:-1]):
            raise ValidationError(f"arena {self.name!r}: dep_indptr not monotone")
        if len(self.dep_indices):
            if np.any(self.dep_indices < 0):
                raise SchedulingError(
                    f"arena {self.name!r}: negative dependency id "
                    f"(unresolved template sentinel?)"
                )
            owner = np.repeat(np.arange(n, dtype=np.int64), self.dep_counts)
            if np.any(self.dep_indices >= owner):
                bad = int(np.flatnonzero(self.dep_indices >= owner)[0])
                raise SchedulingError(
                    f"arena {self.name!r}: task {int(owner[bad])} depends on "
                    f"unknown/future task id {int(self.dep_indices[bad])}"
                )
        if self.name_ids.size and (
            int(self.name_ids.min()) < 0
            or int(self.name_ids.max()) >= len(self.names)
        ):
            raise ValidationError(
                f"arena {self.name!r}: name_ids outside the interned table"
            )
        self._validated = True

    # ---- resolved views ------------------------------------------------

    def names_list(self) -> list[str]:
        """Per-task resolved name strings (cached)."""
        out = getattr(self, "_c_names_list", None)
        if out is None:
            table = self.names
            out = [table[i] for i in self.name_ids.tolist()]
            self._c_names_list = out
        return out

    def created_by_list(self) -> list[int | None]:
        """Per-task creator tids with ``None`` for no creator (cached)."""
        out = getattr(self, "_c_created_list", None)
        if out is None:
            out = [c if c >= 0 else None for c in self.created_by.tolist()]
            self._c_created_list = out
        return out

    def deps_list(self) -> list[tuple[int, ...]]:
        """Per-task dependency tuples (cached; plain Python ints)."""
        out = getattr(self, "_c_deps_list", None)
        if out is None:
            flat = self.dep_indices.tolist()
            ptr = self.dep_indptr.tolist()
            out = [
                tuple(flat[ptr[i] : ptr[i + 1]]) for i in range(len(self))
            ]
            self._c_deps_list = out
        return out

    # ---- successors ----------------------------------------------------

    def successors_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the successor adjacency.

        For each tid, the dependents in ascending-tid order — the exact
        append order ``TaskGraph._successors`` accumulates, which the
        event kernels' completion cascades rely on.
        """
        out = getattr(self, "_c_succ_csr", None)
        if out is None:
            n = len(self)
            counts = np.bincount(self.dep_indices, minlength=n) if len(
                self.dep_indices
            ) else np.zeros(n, dtype=np.int64)
            ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=ptr[1:])
            # Stable sort groups edges by dependency while preserving
            # the original edge order — and edges are stored in
            # ascending owner-tid order, so each group comes out in the
            # object path's append order.
            order = np.argsort(self.dep_indices, kind="stable")
            owners = np.repeat(
                np.arange(n, dtype=np.int64), self.dep_counts
            )
            out = (ptr, owners[order])
            self._c_succ_csr = out
        return out

    def successors_lists(self) -> list[list[int]]:
        """Successor lists as plain Python ints (cached) — the arena
        analogue of ``TaskGraph._successors`` for the event kernels."""
        out = getattr(self, "_c_succ_lists", None)
        if out is None:
            ptr, idx = self.successors_csr()
            flat = idx.tolist()
            p = ptr.tolist()
            out = [flat[p[i] : p[i + 1]] for i in range(len(self))]
            self._c_succ_lists = out
        return out

    # ---- structural metrics (vectorized topological sweeps) ------------

    def _forward_levels(self) -> tuple[np.ndarray, np.ndarray]:
        out = getattr(self, "_c_fwd_levels", None)
        if out is None:
            sptr, sidx = self.successors_csr()
            out = _level_order(len(self), self.dep_indptr, sptr, sidx)
            self._c_fwd_levels = out
        return out

    def _reverse_levels(self) -> tuple[np.ndarray, np.ndarray]:
        out = getattr(self, "_c_rev_levels", None)
        if out is None:
            sptr, _ = self.successors_csr()
            out = _level_order(len(self), sptr, self.dep_indptr, self.dep_indices)
            self._c_rev_levels = out
        return out

    def uncontended_durations(
        self,
        core_peak: float,
        l1_bw: float,
        l2_bw: float,
        l3_bw: float,
        dram_bw: float,
    ) -> np.ndarray:
        """Per-task uncontended duration — the vectorized, bit-identical
        twin of :meth:`Scheduler.uncontended_duration` (same divisions,
        same operand order, ``max`` is exact)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            t0 = np.where(
                self.flops != 0.0, self.flops / (self.efficiency * core_peak), 0.0
            )
            t1 = np.where(self.bytes_l1 != 0.0, self.bytes_l1 / l1_bw, 0.0)
            t2 = np.where(self.bytes_l2 != 0.0, self.bytes_l2 / l2_bw, 0.0)
            t3 = np.where(self.bytes_l3 != 0.0, self.bytes_l3 / l3_bw, 0.0)
            t4 = np.where(self.bytes_dram != 0.0, self.bytes_dram / dram_bw, 0.0)
        return np.maximum(np.maximum(np.maximum(np.maximum(t0, t1), t2), t3), t4)

    def total_work_seconds(self, durations: np.ndarray) -> float:
        """T1 under the given per-task *durations* (pairwise numpy
        summation; agrees with the scalar accumulation to summation-
        order rounding)."""
        return float(np.sum(durations))

    def finish_times(self, durations: np.ndarray) -> np.ndarray:
        """Earliest-finish time of every task under *durations* — the
        forward critical-path sweep, one ``reduceat`` per level."""
        self.validate()
        n = len(self)
        finish = np.zeros(n, dtype=np.float64)
        if n == 0:
            return finish
        order, level_ptr = self._forward_levels()
        # Level 0: no dependencies, start at 0.
        first = order[level_ptr[0] : level_ptr[1]]
        finish[first] = durations[first]
        for k in range(1, len(level_ptr) - 1):
            rows = order[level_ptr[k] : level_ptr[k + 1]]
            deps, seg_starts, _ = _gather_segments(
                self.dep_indptr, self.dep_indices, rows
            )
            starts = np.maximum.reduceat(finish[deps], seg_starts)
            finish[rows] = starts + durations[rows]
        return finish

    def critical_path_seconds(self, durations: np.ndarray) -> float:
        """T_inf: longest dependency chain under *durations*."""
        finish = self.finish_times(durations)
        return float(finish.max()) if len(finish) else 0.0

    def critical_priorities(self, durations: np.ndarray) -> np.ndarray:
        """Longest path to any sink, per task — the ``critical`` policy
        priority.  Bit-identical to the reference scalar loop (reverse
        topological sweep; ``max`` exact, one add per task)."""
        self.validate()
        n = len(self)
        prio = np.zeros(n, dtype=np.float64)
        if n == 0:
            return prio
        sptr, sidx = self.successors_csr()
        order, level_ptr = self._reverse_levels()
        first = order[level_ptr[0] : level_ptr[1]]
        prio[first] = durations[first]  # sinks: below == 0.0
        for k in range(1, len(level_ptr) - 1):
            rows = order[level_ptr[k] : level_ptr[k + 1]]
            succ, seg_starts, _ = _gather_segments(sptr, sidx, rows)
            below = np.maximum.reduceat(prio[succ], seg_starts)
            prio[rows] = durations[rows] + below
        return prio

    def average_parallelism(self, durations: np.ndarray) -> float:
        """T1 / T_inf — the DAG's inherent parallelism."""
        cp = self.critical_path_seconds(durations)
        if cp == 0:
            return float("inf") if len(self) else 0.0
        return self.total_work_seconds(durations) / cp

    def counts_by_prefix(self) -> dict[str, int]:
        """Task counts grouped by the name component before '/'."""
        counts = np.bincount(self.name_ids, minlength=len(self.names))
        out: dict[str, int] = {}
        for nid, c in enumerate(counts.tolist()):
            if c:
                key = self.names[nid].split("/", 1)[0]
                out[key] = out.get(key, 0) + c
        return out

    # ---- conversion ----------------------------------------------------

    @staticmethod
    def from_graph(graph: "TaskGraph") -> "TaskArena":
        """Columnize an object graph (costs, deps, flags bit-for-bit)."""
        interner = NameInterner()
        tasks = graph.tasks
        n = len(tasks)
        name_ids = np.empty(n, dtype=np.int32)
        cols = {f: np.empty(n, dtype=np.float64) for f in _COST_FIELDS}
        untied = np.empty(n, dtype=bool)
        created = np.empty(n, dtype=np.int64)
        dep_flat: list[int] = []
        indptr = np.zeros(n + 1, dtype=np.int64)
        flops_c, eff_c = cols["flops"], cols["efficiency"]
        l1_c, l2_c = cols["bytes_l1"], cols["bytes_l2"]
        l3_c, dram_c = cols["bytes_l3"], cols["bytes_dram"]
        extend = dep_flat.extend
        for i, t in enumerate(tasks):
            name_ids[i] = interner.intern(t.name)
            c = t.cost
            flops_c[i] = c.flops
            eff_c[i] = c.efficiency
            l1_c[i] = c.bytes_l1
            l2_c[i] = c.bytes_l2
            l3_c[i] = c.bytes_l3
            dram_c[i] = c.bytes_dram
            untied[i] = t.untied
            created[i] = t.created_by if t.created_by is not None else NO_CREATOR
            extend(t.deps)
            indptr[i + 1] = len(dep_flat)
        return TaskArena(
            name=graph.name,
            names=interner.snapshot(),
            name_ids=name_ids,
            cost_columns=cols,
            untied=untied,
            created_by=created,
            dep_indptr=indptr,
            dep_indices=np.asarray(dep_flat, dtype=np.int64),
        )

    def to_graph(self) -> "TaskGraph":
        """Materialize an object :class:`TaskGraph` (cost-only: no
        compute closures exist in an arena).  This is the bridge to the
        reference event kernel — the differential oracle's object path.
        """
        from .task import Task, TaskGraph

        self.validate()
        graph = TaskGraph(self.name)
        tasks = graph.tasks
        succ = graph._successors
        names = self.names_list()
        flops = self.flops.tolist()
        eff = self.efficiency.tolist()
        b1 = self.bytes_l1.tolist()
        b2 = self.bytes_l2.tolist()
        b3 = self.bytes_l3.tolist()
        bd = self.bytes_dram.tolist()
        untied = self.untied.tolist()
        created = self.created_by.tolist()
        flat = self.dep_indices.tolist()
        ptr = self.dep_indptr.tolist()
        for i in range(len(self)):
            deps = tuple(flat[ptr[i] : ptr[i + 1]])
            cost = TaskCost(flops[i], eff[i], b1[i], b2[i], b3[i], bd[i])
            cb = created[i]
            tasks.append(
                Task(i, names[i], cost, deps, None, untied[i], cb if cb >= 0 else None)
            )
            succ.append([])
            for d in deps:
                succ[d].append(i)
        graph._validated = True
        return graph

    # ---- diffing (test/oracle support) ---------------------------------

    def structural_diff(self, other: "TaskArena") -> list[str]:
        """Every way two arenas can structurally differ, as messages.

        Bit-for-bit on the float columns (``tobytes`` comparison), exact
        on ids, dependencies and flags; the interned *table order* is
        allowed to differ as long as every task resolves to the same
        name.  Empty list == structurally identical graphs.
        """
        out: list[str] = []
        if len(self) != len(other):
            return [f"task count: {len(self)} vs {len(other)}"]
        if self.name != other.name:
            out.append(f"graph name: {self.name!r} vs {other.name!r}")
        if self.names_list() != other.names_list():
            mine, theirs = self.names_list(), other.names_list()
            k = next(i for i in range(len(mine)) if mine[i] != theirs[i])
            out.append(f"task {k} name: {mine[k]!r} vs {theirs[k]!r}")
        for field in _COST_FIELDS:
            a, b = getattr(self, field), getattr(other, field)
            if a.tobytes() != b.tobytes():
                k = int(np.flatnonzero(a != b)[0]) if np.any(a != b) else -1
                out.append(
                    f"cost column {field} diverged"
                    + (f" at task {k}: {a[k]!r} vs {b[k]!r}" if k >= 0 else " (bit-level)")
                )
        if not np.array_equal(self.untied, other.untied):
            out.append("untied flags diverged")
        if not np.array_equal(self.created_by, other.created_by):
            k = int(np.flatnonzero(self.created_by != other.created_by)[0])
            out.append(
                f"created_by diverged at task {k}: "
                f"{int(self.created_by[k])} vs {int(other.created_by[k])}"
            )
        if not np.array_equal(self.dep_indptr, other.dep_indptr):
            out.append("dep_indptr diverged (dependency counts differ)")
        elif not np.array_equal(self.dep_indices, other.dep_indices):
            k = int(np.flatnonzero(self.dep_indices != other.dep_indices)[0])
            out.append(
                f"dep_indices diverged at edge {k}: "
                f"{int(self.dep_indices[k])} vs {int(other.dep_indices[k])}"
            )
        return out

    # ---- shared-memory transport ---------------------------------------

    def to_shm(self, pool: "ArenaPool") -> "ArenaDescriptor":
        """Lay this arena's columns into *pool*'s shared memory and
        return the compact picklable :class:`~repro.runtime.shm.ArenaDescriptor`
        (segment name + per-column dtype/shape/offset table) a worker
        hands to :meth:`from_shm`.  The pool owns segment lifecycle
        (refcounts, unlink); see :mod:`repro.runtime.shm`."""
        return pool.put(self)

    @staticmethod
    def from_shm(descriptor: "ArenaDescriptor") -> "TaskArena":
        """Attach a descriptor's segment and return the zero-copy,
        read-only arena view (columns are numpy views into the shared
        mapping).  The segment handle rides on ``_shm``; release it
        with :func:`repro.runtime.shm.detach_arena`."""
        from .shm import attach_arena

        return attach_arena(descriptor)

    # ---- pickling ------------------------------------------------------

    def __getstate__(self) -> dict:
        """Drop derived caches (and the engines' plan bundle, and any
        attached shared-memory handle) — workers rebuild them lazily;
        only the core columns cross the wire.  Pickling an shm-attached
        arena deep-copies the columns out of the mapping, which is
        always safe (just no longer zero-copy)."""
        state = {
            k: v
            for k, v in self.__dict__.items()
            if not k.startswith("_c_")
            and k not in ("_plan_bundle", "_shm")
        }
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


# ---------------------------------------------------------------------------
# templates


class SubtreeTemplate:
    """A relocatable sub-graph: arena columns whose dependency entries
    are either template-local indices or :data:`EXT_DEP`, and whose
    ``created_by`` entries are local, :data:`NO_CREATOR`, or
    :data:`EXT_CREATOR`.

    Templates are immutable (arrays are marked non-writeable) and
    freely shared: stamping copies, it never mutates.  ``terminal`` is
    the local index of the subtree's terminal task — by the recursive
    lowerings' construction, always the last row.
    """

    __slots__ = (
        "name_ids",
        "cost_columns",
        "untied",
        "created_by",
        "dep_indices",
        "dep_counts",
        "ext_mask",
        "ext_pos",
        "ext_per_row",
    )

    def __init__(
        self,
        name_ids: np.ndarray,
        cost_columns: dict[str, np.ndarray],
        untied: np.ndarray,
        created_by: np.ndarray,
        dep_indices: np.ndarray,
        dep_counts: np.ndarray,
    ):
        self.name_ids = name_ids
        self.cost_columns = cost_columns
        self.untied = untied
        self.created_by = created_by
        self.dep_indices = dep_indices
        self.dep_counts = dep_counts
        # Sentinel geometry, precomputed once per template.
        self.ext_mask = dep_indices == EXT_DEP
        self.ext_pos = np.flatnonzero(self.ext_mask)
        if len(self.ext_pos):
            owner = np.repeat(
                np.arange(len(name_ids), dtype=np.int64), dep_counts
            )
            self.ext_per_row = np.bincount(
                owner[self.ext_pos], minlength=len(name_ids)
            )
        else:
            self.ext_per_row = np.zeros(len(name_ids), dtype=np.int64)
        for arr in (
            name_ids,
            untied,
            created_by,
            dep_indices,
            dep_counts,
            *cost_columns.values(),
        ):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.name_ids)

    @property
    def terminal(self) -> int:
        """Local index of the subtree's terminal task."""
        return len(self.name_ids) - 1


def _stamp(
    tpl: SubtreeTemplate, base: int, ext: Sequence[int], ext_creator: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relocate *tpl* to tid offset *base*, splicing *ext* at every
    :data:`EXT_DEP` slot and substituting *ext_creator* for
    :data:`EXT_CREATOR`.

    Returns ``(dep_indices, dep_counts, created_by)`` — the only
    columns that change under relocation.  *ext* entries are already in
    the destination frame (ids below *base*, or :data:`EXT_DEP` /
    :data:`EXT_CREATOR` when the destination is itself a template).
    """
    di = tpl.dep_indices
    mask = tpl.ext_mask
    k = len(ext)
    if not len(tpl.ext_pos):
        out_di = di + base
        counts = tpl.dep_counts
    elif k == 0:
        out_di = (di + base)[~mask]
        counts = tpl.dep_counts - tpl.ext_per_row
    elif k == 1:
        out_di = np.where(mask, ext[0], di + base)
        counts = tpl.dep_counts
    else:
        ext_arr = np.asarray(ext, dtype=np.int64)
        out_di = np.where(mask, ext_arr[0], di + base)
        out_di = np.insert(
            out_di,
            np.repeat(tpl.ext_pos + 1, k - 1),
            np.tile(ext_arr[1:], len(tpl.ext_pos)),
        )
        counts = tpl.dep_counts + tpl.ext_per_row * (k - 1)
    cb = tpl.created_by
    out_cb = np.where(cb >= 0, cb + base, cb)
    out_cb = np.where(cb == EXT_CREATOR, ext_creator, out_cb)
    return out_di, counts, out_cb


class TemplateBuilder:
    """Accumulates a template (or a final arena) from scalar ``emit``
    calls and vectorized ``splice`` stampings.

    Scalar emissions buffer in Python lists and flush to an array
    segment whenever a splice lands; ``finish()`` concatenates all
    segments.  Local ids are handed out in emission order, exactly
    mirroring ``TaskGraph.add``'s tid assignment — which is what makes
    a templated lowering bit-identical to the recursive one.
    """

    def __init__(self, interner: NameInterner):
        self._interner = interner
        self._count = 0
        # Finished array segments, one tuple of columns per segment.
        self._segs: list[tuple] = []
        # Scalar emission buffers.
        self._names: list[int] = []
        self._costs: list[tuple] = []
        self._untied: list[bool] = []
        self._created: list[int] = []
        self._dep_flat: list[int] = []
        self._dep_counts: list[int] = []

    def __len__(self) -> int:
        return self._count

    def emit(
        self,
        name: str,
        cost: TaskCost,
        deps: Iterable[int] = (),
        created_by: int = NO_CREATOR,
        untied: bool = True,
    ) -> int:
        """Append one task; *deps* entries are local ids or
        :data:`EXT_DEP`.  Returns the task's local id."""
        tid = self._count
        self._names.append(self._interner.intern(name))
        self._costs.append(
            (
                cost.flops,
                cost.efficiency,
                cost.bytes_l1,
                cost.bytes_l2,
                cost.bytes_l3,
                cost.bytes_dram,
            )
        )
        self._untied.append(untied)
        self._created.append(created_by)
        n_deps = 0
        for d in deps:
            self._dep_flat.append(d)
            n_deps += 1
        self._dep_counts.append(n_deps)
        self._count = tid + 1
        return tid

    def _flush(self) -> None:
        if not self._names:
            return
        n = len(self._names)
        costs = np.asarray(self._costs, dtype=np.float64).reshape(n, 6)
        self._segs.append(
            (
                np.asarray(self._names, dtype=np.int32),
                {f: np.ascontiguousarray(costs[:, j]) for j, f in enumerate(_COST_FIELDS)},
                np.asarray(self._untied, dtype=bool),
                np.asarray(self._created, dtype=np.int64),
                np.asarray(self._dep_flat, dtype=np.int64),
                np.asarray(self._dep_counts, dtype=np.int64),
            )
        )
        self._names = []
        self._costs = []
        self._untied = []
        self._created = []
        self._dep_flat = []
        self._dep_counts = []

    def splice(
        self,
        tpl: SubtreeTemplate,
        ext: Sequence[int] = (),
        ext_creator: int = NO_CREATOR,
    ) -> int:
        """Stamp one instance of *tpl* at the current position; returns
        the (local) id of the instance's terminal task.

        *ext* supplies the instance's external dependency list (may
        itself contain :data:`EXT_DEP` to pass the enclosing template's
        externals through); *ext_creator* resolves the instance's
        :data:`EXT_CREATOR` rows the same way.
        """
        self._flush()
        base = self._count
        out_di, counts, out_cb = _stamp(tpl, base, ext, ext_creator)
        self._segs.append(
            (
                tpl.name_ids,
                tpl.cost_columns,
                tpl.untied,
                out_cb,
                out_di,
                counts,
            )
        )
        self._count = base + len(tpl)
        return base + tpl.terminal

    def _concat(self):
        self._flush()
        segs = self._segs
        if len(segs) == 1:
            name_ids, cols, untied, created, di, counts = segs[0]
            cols = dict(cols)
        else:
            name_ids = np.concatenate([s[0] for s in segs]) if segs else np.empty(0, np.int32)
            cols = {
                f: np.concatenate([s[1][f] for s in segs])
                if segs
                else np.empty(0, np.float64)
                for f in _COST_FIELDS
            }
            untied = np.concatenate([s[2] for s in segs]) if segs else np.empty(0, bool)
            created = np.concatenate([s[3] for s in segs]) if segs else np.empty(0, np.int64)
            di = np.concatenate([s[4] for s in segs]) if segs else np.empty(0, np.int64)
            counts = np.concatenate([s[5] for s in segs]) if segs else np.empty(0, np.int64)
        return name_ids, cols, untied, created, di, counts

    def finish(self) -> SubtreeTemplate:
        """Concatenate everything into an immutable template."""
        name_ids, cols, untied, created, di, counts = self._concat()
        return SubtreeTemplate(
            np.ascontiguousarray(name_ids, dtype=np.int32),
            {f: np.ascontiguousarray(c, dtype=np.float64) for f, c in cols.items()},
            np.ascontiguousarray(untied, dtype=bool),
            np.ascontiguousarray(created, dtype=np.int64),
            np.ascontiguousarray(di, dtype=np.int64),
            np.ascontiguousarray(counts, dtype=np.int64),
        )

    def to_arena(self, name: str) -> TaskArena:
        """Concatenate into a final :class:`TaskArena` (all sentinels
        must have been resolved by the outermost splice)."""
        name_ids, cols, untied, created, di, counts = self._concat()
        if len(di) and np.any(di < 0):
            raise ValidationError(
                f"arena {name!r}: unresolved EXT_DEP sentinel — the "
                f"outermost template was not spliced with ext=()"
            )
        if len(created) and np.any(created < NO_CREATOR):
            raise ValidationError(
                f"arena {name!r}: unresolved EXT_CREATOR sentinel"
            )
        n = len(name_ids)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return TaskArena(
            name=name,
            names=self._interner.snapshot(),
            name_ids=name_ids,
            cost_columns=cols,
            untied=untied,
            created_by=created,
            dep_indptr=indptr,
            dep_indices=di,
        )
