"""Dense numerics as a program stamped from the lowering templates.

Every dense algorithm defines its tasks once, in the template recursion
that builds its cost arena (``_arena_template``).  Next to each task the
recursion declares the task's numerics *op*: a kernel kind plus operand
*views*.  The cost-only :class:`~repro.runtime.arena.TemplateBuilder`
drops those declarations; a :class:`ProgramBuilder` keeps them, so the
same recursion, driven with a program builder, stamps a
:class:`NumericsProgram` whose task ids are the arena's task ids by
construction.

A view is a 5-tuple ``(buf, r0, c0, rows, cols)``: a block of a buffer.
Inside a template, ``buf`` is a template-local buffer id (``>= 0``) or
one of the subtree's inputs :data:`SUB_A`, :data:`SUB_B`,
:data:`SUB_C`.  Splicing a child relocates its views exactly as
:func:`~repro.runtime.arena._stamp` relocates dependencies: local ids
shift by the parent's buffer count, and input views compose with the
parent-frame views the child is spliced over.  The finished program
names buffers ``0, 1, 2`` for the (padded) A, B and C and ``3..`` for
the temporaries.

Each kernel runs the numpy expressions the per-task closures of the
object lowerings ran, on the same views, so the product keeps its bits.

The temporaries share storage by liveness over the order a run
executes (:meth:`NumericsProgram.plan`).  Each temporary is live from
its first to its last access in that order; two temporaries of one
shape share a slot only when every access of one precedes every access
of the other.  Every op therefore reads exactly what it would read from
a private buffer, so C keeps its bits in every order, each under its
own plan.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from ..linalg.fastmm import (
    classic_strassen_product,
    winograd_product,
    winograd_product_peeled,
)
from ..runtime.arena import NO_CREATOR
from ..util.errors import ValidationError

__all__ = [
    "BufferPlan",
    "NumericsProgram",
    "ProgramBuilder",
    "ProgramTemplate",
    "planned_nbytes",
]

#: Operand-view buffer sentinels: the subtree's A, B and C inputs.
SUB_A, SUB_B, SUB_C = -1, -2, -3

# ---- views ------------------------------------------------------------------


def full(buf: int, size: int) -> tuple:
    """The whole ``size x size`` buffer *buf*."""
    return (buf, 0, 0, size, size)


def block(v: tuple, r0: int, c0: int, nr: int, nc: int) -> tuple:
    """The ``nr x nc`` block of view *v* at ``(r0, c0)``."""
    return (v[0], v[1] + r0, v[2] + c0, nr, nc)


def quadrants(v: tuple) -> tuple[tuple, tuple, tuple, tuple]:
    """``(v11, v12, v21, v22)`` of an even square view."""
    h = v[3] // 2
    return tuple(block(v, r, c, h, h) for r in (0, h) for c in (0, h))


def rows(v: tuple, r0: int, r1: int) -> tuple:
    """Rows ``r0:r1`` of view *v*."""
    return (v[0], v[1] + r0, v[2], r1 - r0, v[4])


def winograd_factors(qa: tuple, qb: tuple, st: Sequence[tuple]) -> list[tuple]:
    """The seven Winograd ``(left, right)`` factor pairs from the
    quadrants of A and B and the ``s1..s4, t1..t4`` sums."""
    a11, a12, a21, a22 = qa
    b11, b12, b21, b22 = qb
    s1, s2, s3, s4, t1, t2, t3, t4 = st
    return [(a11, b11), (a12, b21), (s4, b22), (a22, t4), (s1, t1), (s2, t2), (s3, t3)]


# ---- kernels ----------------------------------------------------------------
# Op kinds index _KERNELS; 0 is "no numerics" (joins, idle chunks).

NOP, GEMM, ADD, SUB, COPY, WINO_PRE, WINO_POST, CLASSIC_PRE, CLASSIC_POST, \
    CAPS_U, PEEL, GRAIN_WINOGRAD, GRAIN_PEELED, GRAIN_CLASSIC = range(14)


def _gemm(v, cutoff):
    np.matmul(v[0], v[1], out=v[2])


def _add(v, cutoff):
    np.add(v[0], v[1], out=v[2])


def _sub(v, cutoff):
    np.subtract(v[0], v[1], out=v[2])


def _copy(v, cutoff):
    for i in range(0, len(v), 2):
        v[i + 1][:, :] = v[i]


def _wino_pre(v, cutoff):
    a11, a12, a21, a22, b11, b12, b21, b22, s1, s2, s3, s4, t1, t2, t3, t4 = v
    np.add(a21, a22, out=s1)
    np.subtract(s1, a11, out=s2)
    np.subtract(a11, a21, out=s3)
    np.subtract(a12, s2, out=s4)
    np.subtract(b12, b11, out=t1)
    np.subtract(b22, t1, out=t2)
    np.subtract(b22, b12, out=t3)
    np.subtract(t2, b21, out=t4)


def _wino_post(v, cutoff):
    # u2 = p1 + p6, u3 = u2 + p7 and u4 = u2 + p5 are formed in the C
    # quadrants they end in, not in quadrant-sized temporaries.
    p1, p2, p3, p4, p5, p6, p7, c11, c12, c21, c22 = v
    np.add(p1, p6, out=c12)  # u2
    np.add(c12, p7, out=c21)  # u3
    np.add(c21, p5, out=c22)
    np.subtract(c21, p4, out=c21)
    np.add(c12, p5, out=c12)  # u4
    np.add(c12, p3, out=c12)
    np.add(p1, p2, out=c11)


def _classic_pre(v, cutoff):
    a11, a12, a21, a22, b11, b12, b21, b22 = v[:8]
    l1, l2, l3, l4, l5, l6, l7 = v[8:15]
    r1, r2, r3, r4, r5, r6, r7 = v[15:]
    # Left factors (paper Eq. 7, corrected).
    np.add(a11, a22, out=l1)
    np.add(a21, a22, out=l2)
    l3[:, :] = a11
    l4[:, :] = a22
    np.add(a11, a12, out=l5)
    np.subtract(a21, a11, out=l6)
    np.subtract(a12, a22, out=l7)
    # Right factors.
    np.add(b11, b22, out=r1)
    r2[:, :] = b11
    np.subtract(b12, b22, out=r3)
    np.subtract(b21, b11, out=r4)
    r5[:, :] = b22
    np.add(b11, b12, out=r6)
    np.add(b21, b22, out=r7)


def _classic_post(v, cutoff):
    q1, q2, q3, q4, q5, q6, q7, c11, c12, c21, c22 = v
    c11[:, :] = q1 + q4 - q5 + q7
    c12[:, :] = q3 + q5
    c21[:, :] = q2 + q4
    c22[:, :] = q1 - q2 + q3 + q6


def _caps_u(v, cutoff):
    p1, p5, p6, p7, u2, u3, u4 = v
    np.add(p1, p6, out=u2)
    np.add(u2, p7, out=u3)
    np.add(u2, p5, out=u4)


def _peel(v, cutoff):
    # Border restoration around the even core (dynamic peeling).
    av, bv, cw, core = v
    m = av.shape[0] - 1
    cw[:m, :m] = core + np.outer(av[:m, m], bv[m, :m])
    cw[:m, m] = av[:m, :m] @ bv[:m, m] + av[:m, m] * bv[m, m]
    cw[m, :m] = av[m, :m] @ bv[:m, :m] + av[m, m] * bv[m, :m]
    cw[m, m] = av[m, :m] @ bv[:m, m] + av[m, m] * bv[m, m]


def _grain(product):
    def kernel(v, cutoff):
        a, b, c = v
        c[:, :] = product(a, b, cutoff)

    return kernel


_KERNELS = (
    None, _gemm, _add, _sub, _copy, _wino_pre, _wino_post, _classic_pre,
    _classic_post, _caps_u, _peel, _grain(winograd_product),
    _grain(winograd_product_peeled), _grain(classic_strassen_product),
)


# ---- templates and stamping -------------------------------------------------


class ProgramTemplate:
    """The op rows of one subtree template: per-task kinds and operand
    counts, the operand views as an ``(k, 5)`` array, and the shapes of
    the template-local buffers.  Immutable and freely shared."""

    __slots__ = ("kinds", "nargs", "views", "shapes")

    def __init__(self, kinds, nargs, views, shapes):
        self.kinds = kinds
        self.nargs = nargs
        self.views = views
        self.shapes = shapes

    def __len__(self) -> int:
        return len(self.kinds)

    def to_program(
        self, n: int, m: int, cutoff: int, variant: str
    ) -> "NumericsProgram":
        """Resolve the subtree inputs to the root buffers 0/1/2 (A, B, C
        of the ``m x m`` padded problem) and shift the temporaries past
        them.  *cutoff* is the grain kernels' recursion cutoff and, with
        *variant*, selects the stability bound the product is verified
        against."""
        views = self.views.copy()
        buf = views[:, 0]
        views[:, 0] = np.where(buf < 0, -buf - 1, buf + 3)
        return NumericsProgram(
            n, m, self.kinds, self.nargs, views, self.shapes, cutoff, variant
        )


class ProgramBuilder:
    """Accumulates a :class:`ProgramTemplate` from the template
    recursion's ``emit`` / ``splice`` / ``buffers`` calls — the same
    calls that build the cost template, with the costs, names and
    dependencies ignored and the ops kept.  Local task ids follow
    emission order, as in :class:`~repro.runtime.arena.TemplateBuilder`.
    """

    def __init__(self) -> None:
        self._count = 0
        self._shapes = [np.empty((0, 2), dtype=np.int64)]
        self._nbufs = 0
        # Finished segments (kinds, nargs, views), then scalar emissions.
        self._segs: list[tuple] = []
        self._kinds: list[int] = []
        self._nargs: list[int] = []
        self._views: list[tuple] = []

    def buffers(self, k: int, nr: int, nc: int) -> list[tuple]:
        """Declare *k* ``nr x nc`` temporaries; returns their views."""
        base = self._nbufs
        self._nbufs += k
        self._shapes.append(np.tile(np.asarray([nr, nc], dtype=np.int64), (k, 1)))
        return [(base + i, 0, 0, nr, nc) for i in range(k)]

    def emit(
        self, name, cost=None, deps=(), created_by=NO_CREATOR, untied=True, op=None
    ):
        """Append one task with numerics *op* ``(kind, *views)`` (or
        none); returns its local id."""
        op = op or (NOP,)
        self._kinds.append(op[0])
        self._nargs.append(len(op) - 1)
        self._views.extend(op[1:])
        self._count += 1
        return self._count - 1

    def _flush(self) -> None:
        if self._kinds:
            views = np.asarray(self._views, dtype=np.int64).reshape(-1, 5)
            self._segs.append((self._kinds, self._nargs, views))
            self._kinds, self._nargs, self._views = [], [], []

    def splice(self, tpl: ProgramTemplate, ext=(), ext_creator=NO_CREATOR, views=()):
        """Stamp *tpl* over the parent-frame input *views* ``(A, B, C)``;
        returns the instance's terminal local id."""
        self._flush()
        origin = np.asarray([v[:3] for v in views], dtype=np.int64)
        buf = tpl.views[:, 0]
        sub = buf < 0
        src = origin[np.where(sub, -buf - 1, 0)]
        out = tpl.views.copy()
        out[:, 0] = np.where(sub, src[:, 0], buf + self._nbufs)
        out[:, 1:3] += np.where(sub[:, None], src[:, 1:3], 0)
        self._segs.append((tpl.kinds, tpl.nargs, out))
        self._shapes.append(tpl.shapes)
        self._nbufs += len(tpl.shapes)
        self._count += len(tpl)
        return self._count - 1

    def finish(self) -> ProgramTemplate:
        self._flush()
        kinds, nargs, views = (np.concatenate(col) for col in zip(*self._segs))
        shapes = np.concatenate(self._shapes)
        tpl = ProgramTemplate(
            kinds.astype(np.int8), nargs.astype(np.int64), views, shapes
        )
        for arr in (tpl.kinds, tpl.nargs, tpl.views, tpl.shapes):
            arr.setflags(write=False)
        return tpl


class NumericsProgram:
    """The stamped numerics of one ``(n, threads)`` lowering.

    Task *i*'s op is ``kinds[i]`` over the views
    ``views[ptr[i]:ptr[i + 1]]``; buffers ``0, 1, 2`` are the padded A,
    B and C (``m x m``), the rest the temporaries of ``shapes``.
    """

    def __init__(self, n, m, kinds, nargs, views, shapes, cutoff, variant):
        self.n = n
        self.m = m
        self.variant = variant
        self.cutoff = cutoff
        self.kinds = kinds
        self.ptr = np.concatenate(([0], np.cumsum(nargs)))
        self.views = views
        self.shapes = shapes

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def temp_nbytes(self) -> int:
        """Bytes the temporaries would take with a buffer each."""
        return int(np.prod(self.shapes, axis=1).sum()) * 8

    def plan(self, order: Sequence[int]) -> "BufferPlan":
        """The storage plan of the temporaries for a run in *order* (a
        permutation of the task ids).

        Temporary *t*'s live interval is its first and last access
        position in *order*.  Per shape, temporaries take slots greedily
        by first access: a slot is reused when its previous owner's last
        access is strictly earlier, else a new slot opens, so each shape
        gets as many slots as it has temporaries live at once."""
        ntasks = len(self)
        order = np.asarray(order, dtype=np.int64)
        if order.shape != (ntasks,):
            raise ValidationError(
                f"a buffer plan needs all {ntasks} tasks in order, got "
                f"{order.size}"
            )
        pos = np.empty(ntasks, dtype=np.int64)
        pos[order] = np.arange(ntasks)
        at = np.repeat(pos, np.diff(self.ptr))  # each view row's position
        temp = self.views[:, 0] - 3
        mask = temp >= 0
        temp, at = temp[mask], at[mask]
        first = np.full(len(self.shapes), ntasks, dtype=np.int64)
        last = np.full(len(self.shapes), -1, dtype=np.int64)
        np.minimum.at(first, temp, at)
        np.maximum.at(last, temp, at)
        # Never-accessed temporaries sort last and take any slot.
        shapes = self.shapes.tolist()
        slot = np.empty(len(shapes), dtype=np.int64)
        free: dict[tuple, list] = {}  # shape -> heap of (last access, slot)
        slot_shapes: list = []
        firsts, lasts = first.tolist(), last.tolist()
        for t in np.argsort(first, kind="stable").tolist():
            heap = free.setdefault(tuple(shapes[t]), [])
            if heap and heap[0][0] < firsts[t]:
                s = heap[0][1]
                heapq.heapreplace(heap, (lasts[t], s))
            else:
                s = len(slot_shapes)
                slot_shapes.append(shapes[t])
                heapq.heappush(heap, (lasts[t], s))
            slot[t] = s
        slot_shapes = np.asarray(slot_shapes, dtype=np.int64).reshape(-1, 2)
        return BufferPlan(first, last, slot, slot_shapes)

    def allocate(
        self, a: np.ndarray, b: np.ndarray, order: Sequence[int]
    ) -> list[np.ndarray]:
        """Every buffer of a run in *order* over operands *a*, *b*: the
        operands zero-padded to ``m``, a zeroed C, and the temporaries,
        which share the slots of :meth:`plan` (*order*)."""
        n, m = self.n, self.m
        plan = self.plan(order)
        if m != n:
            a = np.pad(a, ((0, m - n), (0, m - n)))
            b = np.pad(b, ((0, m - n), (0, m - n)))
        slots = [np.empty((r, c), dtype=np.float64) for r, c in plan.shapes.tolist()]
        bufs = [a, b, np.zeros((m, m), dtype=np.float64)]
        bufs += [slots[s] for s in plan.slot.tolist()]
        return bufs

    def run_op(self, bufs: list[np.ndarray], tid: int) -> None:
        """Run task *tid*'s op over *bufs*."""
        kind = int(self.kinds[tid])
        if kind:
            rows = self.views[self.ptr[tid] : self.ptr[tid + 1]].tolist()
            _call(kind, rows, bufs, self.cutoff)

    def run(self, bufs: list[np.ndarray], order: Sequence[int]) -> None:
        """Run every op in *order* (a linear extension of the DAG).

        Each op's view rows become Python ints as the op runs: all of
        them at once would hold 4.6 MiB of lists (CAPS n=1024) through
        the run, whose end is a verified study's memory peak."""
        kinds, ptr, views = self.kinds.tolist(), self.ptr.tolist(), self.views
        for tid in order:
            if kinds[tid]:
                rows = views[ptr[tid] : ptr[tid + 1]].tolist()
                _call(kinds[tid], rows, bufs, self.cutoff)


class BufferPlan:
    """Where the temporaries of one run live.  Temporary *t* (buffer
    ``3 + t``) is accessed at positions ``first[t]..last[t]`` of the
    run's order and stored in slot ``slot[t]``; slot *s* is an array of
    shape ``shapes[s]``."""

    __slots__ = ("first", "last", "slot", "shapes")

    def __init__(self, first, last, slot, shapes):
        self.first = first
        self.last = last
        self.slot = slot
        self.shapes = shapes


def planned_nbytes(bufs: list[np.ndarray]) -> int:
    """Bytes the temporaries of an :meth:`NumericsProgram.allocate`
    result take, each shared slot counted once."""
    return sum({id(x): x.nbytes for x in bufs[3:]}.values())


def _call(kind: int, rows: list, bufs: list[np.ndarray], cutoff: int) -> None:
    """Run kernel *kind* over the buffer blocks named by *rows*."""
    args = [bufs[g][r0 : r0 + nr, c0 : c0 + nc] for g, r0, c0, nr, nc in rows]
    _KERNELS[kind](args, cutoff)
