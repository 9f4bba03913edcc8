"""The fast kernel's plan bundle, built vectorized from arena columns.

The ``fast`` kernel seats tasks from one per-(arena, machine)
:class:`PlanBundle`: CSR private seat entries ``(dim, rate, dur,
adj_dur, demand)`` for the compute/L1/L2 demands above EPS, CSR shared
``(dim, work)`` L3/DRAM entries, per-task ``alive0`` codes, affinity and
exactly-zero flags, indegrees and seeds.
:func:`build_bundle` derives them with whole-column numpy passes that
evaluate the object builder's IEEE expressions
(:func:`repro.testing.seatplans.object_seat_plan`, the oracle) in its
operand order, so every float is bit-identical (DESIGN.md §13.2).
``fast`` derives its seat tuples from the bundle once; the bundle is
cached on the arena under :data:`_PLAN_ATTR` (dropped from pickles).
The spec and the C kernel price each task at dispatch from the arena's
columns instead, so this module has one reader and goes with ``fast``.
"""

from __future__ import annotations

import numpy as np

from .arena import TaskArena
from .scheduler import _EPS

__all__ = ["PlanBundle", "build_bundle", "plan_bundle"]

#: Attribute under which the plan bundle is cached on an arena.
_PLAN_ATTR = "_plan_bundle"


class PlanBundle:
    """One arena's seat plan on one machine, as contiguous arrays."""

    __slots__ = (
        "key",            # (core_peak, l1_bw, l2_bw, l3_bw, dram_bw)
        "n",              # task count
        "priv_ptr", "priv_dim", "priv_rate", "priv_dur", "priv_adj",
        "priv_dem",       # CSR over private (dim, rate, dur, adj, demand)
        "shr_ptr", "shr_dim", "shr_work",  # CSR over shared (dim, work)
        "alive0",         # int64 entry count / 0 trivial / -1-dim bad
        "affinity",       # uint8: tied AND has a creator
        "zeros",          # uint8: cost exactly zero
        "indeg0",         # int64 initial indegrees
        "seeds",          # int64 tids with no dependencies, in tid order
        "any_created",    # any task has a creator (affinity can fire)
        "crit_prio",      # float64 critical-policy priorities or None
        "seat_plan",      # the fast kernel's derived seat tuples or None
    )

    def priorities(self, arena: TaskArena) -> np.ndarray:
        """Critical-policy priorities (longest path to any sink), cached."""
        if self.crit_prio is None:
            self.crit_prio = arena.critical_priorities(
                arena.uncontended_durations(*self.key)
            )
        return self.crit_prio


def build_bundle(arena: TaskArena, key: tuple) -> PlanBundle:
    """Build *arena*'s plan bundle for the machine constants *key*."""
    core_peak, l1_bw, l2_bw = key[:3]
    eps = _EPS
    n = len(arena)
    f, b1, b2 = arena.flops, arena.bytes_l1, arena.bytes_l2
    b3, bd = arena.bytes_l3, arena.bytes_dram
    rate0 = arena.efficiency * core_peak

    want = np.stack((f > eps, b1 > eps, b2 > eps), axis=1)
    dead = np.empty((n, 3), dtype=bool)
    dead[:, 0] = rate0 <= 0.0
    dead[:, 1] = l1_bw <= 0.0
    dead[:, 2] = l2_bw <= 0.0
    bad = want & dead
    live = want & ~dead
    # Row-major: a task's entries keep their dimension order.
    rows, dims = np.nonzero(live)
    dims = np.ascontiguousarray(dims)  # nonzero returns strided views
    demand = np.stack((f, b1, b2))[dims, rows]
    rate = np.where(dims == 0, rate0[rows], np.array((0.0, l1_bw, l2_bw))[dims])
    dur = demand / rate

    shared = np.stack((b3 > eps, bd > eps), axis=1)
    srows, sdims = np.nonzero(shared)
    n_priv = live.sum(axis=1)
    n_shr = shared.sum(axis=1)

    cp = PlanBundle()
    cp.key = key
    cp.n = n
    cp.priv_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_priv, out=cp.priv_ptr[1:])
    cp.priv_dim = dims
    cp.priv_rate = rate
    cp.priv_dur = dur
    # On L1/L2 entries ``eps / rate`` is the object builder's hoisted
    # ``eps / l1_bw`` (``eps / l2_bw``): the same division, the same bits.
    cp.priv_adj = dur - eps / rate
    cp.priv_dem = demand
    cp.shr_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_shr, out=cp.shr_ptr[1:])
    cp.shr_dim = sdims + 3
    cp.shr_work = np.stack((b3, bd))[sdims, srows]
    cp.alive0 = np.where(
        bad.any(axis=1), -1 - bad.argmax(axis=1), n_priv + n_shr
    ).astype(np.int64)
    created = arena.created_by
    cp.affinity = (~arena.untied & (created >= 0)).astype(np.uint8)
    cp.zeros = (
        (f == 0.0) & (b1 == 0.0) & (b2 == 0.0) & (b3 == 0.0) & (bd == 0.0)
    ).astype(np.uint8)
    cp.indeg0 = arena.dep_counts
    cp.seeds = np.flatnonzero(cp.indeg0 == 0)
    cp.any_created = bool((created >= 0).any())
    cp.crit_prio = None
    cp.seat_plan = None
    return cp


def plan_bundle(arena: TaskArena, key: tuple) -> tuple[PlanBundle, bool]:
    """``(bundle, cached)``: *arena*'s bundle for *key*, built on a miss."""
    cp = getattr(arena, _PLAN_ATTR, None)
    if cp is not None and cp.key == key:
        return cp, True
    cp = build_bundle(arena, key)
    setattr(arena, _PLAN_ATTR, cp)
    return cp, False
