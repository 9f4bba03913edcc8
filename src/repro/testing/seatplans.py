"""Reference seat-plan builder: one ``Task`` object at a time.

:func:`repro.runtime.plans.build_bundle` derives the fast kernel's
seat plan from an arena's columns with whole-column numpy passes, and
the fast kernel derives its per-task seat tuples from that bundle.
This module is the slow, obvious version they must equal: each task's
``TaskCost`` read attribute by attribute and turned into its seat tuple
with scalar IEEE expressions, in dimension order.

``tests/runtime/test_plans.py`` compares the two column by column, byte
for byte, on real lowerings and on hand-built edge arenas.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..runtime.fastpath import _GraphPlan
from ..runtime.scheduler import _EPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .taskgraph import TaskGraph

__all__ = ["object_seat_plan"]


def object_seat_plan(graph: "TaskGraph", key: tuple) -> _GraphPlan:
    """The fast kernel's seat plan for *graph* on the machine constants
    *key* ``(core_peak, l1_bw, l2_bw, l3_bw, dram_bw)``, built from the
    object tasks (see :data:`repro.runtime.fastpath` for the tuple
    layout)."""
    gp = _GraphPlan(key)
    core_peak, l1_bw, l2_bw = key[:3]
    eps = _EPS
    any_created = False
    zero_seed = False
    # ``eps / bw`` is loop-invariant for the fixed-bandwidth dims; the
    # flops dim keeps ``eps / rate`` inline because the rate varies with
    # per-task efficiency.  Both forms produce the same bits.
    eps_l1 = eps / l1_bw if l1_bw > 0.0 else 0.0
    eps_l2 = eps / l2_bw if l2_bw > 0.0 else 0.0
    for i, task in enumerate(graph.tasks):
        gp.created.append(task.created_by)
        cost = task.cost
        f = cost.flops
        b1 = cost.bytes_l1
        b2 = cost.bytes_l2
        b3 = cost.bytes_l3
        bd = cost.bytes_dram
        zero = f == 0.0 and b1 == 0.0 and b2 == 0.0 and b3 == 0.0 and bd == 0.0
        gp.zeros.append(zero)
        gp.indeg0.append(len(task.deps))
        if not task.deps:
            gp.seeds.append(i)
            zero_seed = zero_seed or zero
        priv = []
        shared = []
        bad = -1
        if f > eps:
            rate = cost.efficiency * core_peak
            if rate <= 0.0:
                bad = 0
            else:
                dur = f / rate
                priv.append((0, rate, dur, dur - eps / rate, f))
        if b1 > eps:
            if l1_bw <= 0.0:
                bad = bad if bad >= 0 else 1
            else:
                dur = b1 / l1_bw
                priv.append((1, l1_bw, dur, dur - eps_l1, b1))
        if b2 > eps:
            if l2_bw <= 0.0:
                bad = bad if bad >= 0 else 2
            else:
                dur = b2 / l2_bw
                priv.append((2, l2_bw, dur, dur - eps_l2, b2))
        if b3 > eps:
            shared.append((3, b3))
        if bd > eps:
            shared.append((4, bd))
        created = task.created_by is not None
        any_created = any_created or created
        alive0 = -1 - bad if bad >= 0 else len(priv) + len(shared)
        gp.plans.append(
            (tuple(priv), tuple(shared), alive0, (not task.untied) and created)
        )
    gp.any_created = any_created
    gp.zero_seed = zero_seed
    return gp
