"""Structure-of-arrays task graphs with CSR dependencies.

A :class:`TaskArena` is the one task-graph representation every
lowering emits and every event kernel reads: one interned name table
plus a handful of flat numpy arrays (cost columns, flags, and the
dependency lists in CSR form).  The recursive algorithms' DAGs are
exactly self-similar (Ballard et al.: the graph at size ``n`` is seven
stamped copies of the graph at ``n/2`` plus ``O(1)`` add/join nodes),
so "stamp seven copies" is an array concatenation with a tid offset
instead of a re-run of a Python recursion that builds ``O(7^d)``
objects per cell.

Two layers live here:

* :class:`TaskArena` — the SoA/CSR container, with the structural
  metrics (``total_work_seconds``, ``critical_path_seconds``,
  critical-policy priorities) computed by one linear-time Kahn frontier
  pass over the CSR arrays (:func:`_longest_path`).  Each round pushes
  the frontier's finish times to its successors with ``np.maximum.at``
  and releases the successors whose last in-edge it was, so no round
  touches a task outside the frontier's out-edges.  The pass is
  bit-identical to the scalar loops of the object oracle
  (:mod:`repro.testing.taskgraph`): ``max`` is exact in any order and
  every task gets one add.
* :class:`SubtreeTemplate` / :class:`TemplateBuilder` — relocatable
  sub-graph templates.  A template's dependency entries are either
  *local* (indices into the template itself) or the :data:`EXT_DEP`
  sentinel, which marks "splice the instantiation's external dependency
  list here"; ``created_by`` uses :data:`EXT_CREATOR` the same way.
  Stamping a template into a builder is pure array arithmetic
  (:func:`_stamp`): offset the local ids by the instantiation base,
  substitute the sentinels, fix up the per-row dependency counts.
  Scalar ``emit`` calls serve the dense templates and the OpenMP
  region builder (:class:`repro.runtime.openmp.OpenMP`) alike.

An arena carries no closures, so it is cheap to pickle across study
workers.  The dense algorithms' template recursions also declare each
task's numerics op; the cost-only :class:`TemplateBuilder` drops those
declarations, and a :class:`~repro.algorithms.program.ProgramBuilder`
driven by the same recursion keeps them as a numerics program.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..util.errors import SchedulingError, ValidationError
from .cost import TaskCost

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
#: ``created_by`` value for "no creator".
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


def _gather(
    ptr: np.ndarray, index: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR segments of *rows*, concatenated in row order, and the
    per-row segment lengths."""
    lo = ptr[rows]
    counts = ptr[rows + 1] - lo
    ends = np.cumsum(counts)
    pos = np.arange(ends[-1] if len(ends) else 0, dtype=np.int64)
    pos += np.repeat(lo - (ends - counts), counts)
    return index[pos], counts


def _longest_path(
    n: int,
    in_ptr: np.ndarray,
    out_ptr: np.ndarray,
    out_idx: np.ndarray,
    durations: np.ndarray,
) -> np.ndarray:
    """Longest weighted path ending at each node of a DAG, by Kahn's
    algorithm in whole frontier rounds.

    ``in_ptr`` gives each node's incoming edge count (readiness),
    ``(out_ptr, out_idx)`` the outgoing adjacency along which finish
    times propagate.  A node's start is ``max(0.0, finish of every
    in-edge source)`` and its finish ``start + durations[node]``: the
    scalar recurrence, since ``max`` is exact in any order and every
    node gets one add.  Each round touches only the frontier's
    out-edges, so every node and edge is visited once (the per-round
    sort of the successors aside) however many rounds the DAG needs.
    """
    indeg = in_ptr[1:] - in_ptr[:-1]
    start = np.zeros(n, dtype=np.float64)
    finish = np.empty(n, dtype=np.float64)
    frontier = np.flatnonzero(indeg == 0)
    done = 0
    while frontier.size:
        done += frontier.size
        fin = start[frontier] + durations[frontier]
        finish[frontier] = fin
        succ, counts = _gather(out_ptr, out_idx, frontier)
        np.maximum.at(start, succ, np.repeat(fin, counts))
        touched, dec = np.unique(succ, return_counts=True)
        left = indeg[touched] - dec
        indeg[touched] = left
        frontier = touched[left == 0]
    if done != n:
        raise SchedulingError(
            f"task arena contains a cycle ({n - done} tasks unreachable)"
        )
    return finish


class TaskArena:
    """A task graph as structure-of-arrays columns + CSR dependencies.

    Immutable by convention: every consumer treats the arrays as
    read-only (the event kernels cache their plan bundle on the
    instance, see :mod:`repro.runtime.plans`).  Derived structures
    (successor CSR, resolved name lists) are cached under ``_c_*``
    attributes and dropped on pickling.
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
        by-construction property the builders enforce row by row).  Memoized — arenas are immutable."""
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

        For each tid, the dependents in ascending-tid order, once per
        dependency edge — the order the event kernels' completion
        cascades release them in.
        """
        out = getattr(self, "_c_succ_csr", None)
        if out is None:
            n = len(self)
            counts = np.bincount(self.dep_indices, minlength=n) if len(
                self.dep_indices
            ) else np.zeros(n, dtype=np.int64)
            ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=ptr[1:])
            # One sort of the edge keys ``dep * n + owner`` groups edges
            # by dependency with owners ascending in each group — the
            # stored edge order (edges are kept in ascending owner-tid
            # order), so each group comes out in the object path's
            # append order.
            assert n * n <= np.iinfo(np.int64).max, "edge keys overflow int64"
            keys = self.dep_indices * n
            keys += np.repeat(np.arange(n, dtype=np.int64), self.dep_counts)
            keys.sort()
            out = (ptr, keys % n)
            self._c_succ_csr = out
        return out

    def successors_lists(self) -> list[list[int]]:
        """Successor lists as plain Python ints (cached), for the
        scalar event kernels."""
        out = getattr(self, "_c_succ_lists", None)
        if out is None:
            ptr, idx = self.successors_csr()
            flat = idx.tolist()
            p = ptr.tolist()
            out = [flat[p[i] : p[i + 1]] for i in range(len(self))]
            self._c_succ_lists = out
        return out

    # ---- structural metrics (one frontier pass each) -------------------

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
        forward critical-path sweep over the dependency CSR."""
        self.validate()
        sptr, sidx = self.successors_csr()
        return _longest_path(len(self), self.dep_indptr, sptr, sidx, durations)

    def critical_path_seconds(self, durations: np.ndarray) -> float:
        """T_inf: longest dependency chain under *durations*."""
        finish = self.finish_times(durations)
        return float(finish.max()) if len(finish) else 0.0

    def critical_priorities(self, durations: np.ndarray) -> np.ndarray:
        """Longest path to any sink, per task — the ``critical`` policy
        priority.  Bit-identical to the reference scalar loop: the same
        sweep as :meth:`finish_times`, over the successor CSR."""
        self.validate()
        sptr, _ = self.successors_csr()
        return _longest_path(
            len(self), sptr, self.dep_indptr, self.dep_indices, durations
        )

    def average_parallelism(self, durations: np.ndarray) -> float:
        """T1 / T_inf — the DAG's inherent parallelism."""
        cp = self.critical_path_seconds(durations)
        if cp == 0:
            return float("inf") if len(self) else 0.0
        return self.total_work_seconds(durations) / cp

    def cost(self, tid: int) -> TaskCost:
        """Task *tid*'s cost vector, read back from the columns."""
        return TaskCost(*(float(getattr(self, f)[tid]) for f in _COST_FIELDS))

    def counts_by_prefix(self) -> dict[str, int]:
        """Task counts grouped by the name component before '/'."""
        counts = np.bincount(self.name_ids, minlength=len(self.names))
        out: dict[str, int] = {}
        for nid, c in enumerate(counts.tolist()):
            if c:
                key = self.names[nid].split("/", 1)[0]
                out[key] = out.get(key, 0) + c
        return out

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

    # ---- pickling ------------------------------------------------------

    def __getstate__(self) -> dict:
        """Drop derived caches (and the engines' plan bundle) — they are
        rebuilt lazily; only the core columns are pickled."""
        return {
            k: v
            for k, v in self.__dict__.items()
            if not k.startswith("_c_") and k != "_plan_bundle"
        }

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
    segments.  Local ids are handed out in emission order, exactly as a
    one-task-at-a-time recursion would number them — which is what
    makes a templated lowering bit-identical to the recursive one.
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

    def buffers(self, k: int, nr: int, nc: int) -> list[tuple]:
        """Views of *k* ``nr x nc`` numerics temporaries.  The cost
        template keeps no buffers: the views only feed ignored ops."""
        return [(i, 0, 0, nr, nc) for i in range(k)]

    def emit(
        self,
        name: str,
        cost: TaskCost,
        deps: Iterable[int] = (),
        created_by: int = NO_CREATOR,
        untied: bool = True,
        op: tuple | None = None,
    ) -> int:
        """Append one task; *deps* entries are local ids or
        :data:`EXT_DEP`.  Returns the task's local id.  *op* is the
        task's numerics, which only a numerics
        :class:`~repro.algorithms.program.ProgramBuilder` keeps."""
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
        views: Sequence[tuple] = (),
    ) -> int:
        """Stamp one instance of *tpl* at the current position; returns
        the (local) id of the instance's terminal task.

        *ext* supplies the instance's external dependency list (may
        itself contain :data:`EXT_DEP` to pass the enclosing template's
        externals through); *ext_creator* resolves the instance's
        :data:`EXT_CREATOR` rows the same way.  *views* (the instance's
        numerics operands) are ignored here, as in :meth:`emit`.
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
