"""The measure layer reads interval rows as one array, end to end.

``Engine.measure`` coarsens and integrates a schedule through
``Schedule.interval_columns()``, the ``(k, 8)`` array every kernel
emits.  Two guards: measuring a schedule never builds its interval or
record objects, and the fast and compiled schedules of the same arena
measure bit-identically — around the ``k <= max_trace_segments``
boundary too."""

import pickle

import numpy as np
import pytest

from repro.algorithms import StrassenWinograd
from repro.runtime import compiledpath
from repro.runtime.scheduler import Scheduler
from repro.sim.engine import Engine

pytestmark = pytest.mark.skipif(
    not compiledpath.compiled_available()[0],
    reason=f"compiled engine unavailable: {compiledpath.compiled_available()[1]}",
)


@pytest.fixture(scope="module")
def schedules(machine):
    """``(fast, compiled)`` schedule factories for one Strassen arena."""
    arena = StrassenWinograd(machine).build_arena(256, 3).graph

    def run(engine):
        return Scheduler(machine, 3, engine=engine).run(arena)

    return run


def _bits(buckets) -> bytes:
    """The bucket columns' bytes, row-major like ``interval_columns``."""
    return np.column_stack(buckets).tobytes()


def _segment_counts(k):
    return [1, k - 1, k, k + 1]


def test_interval_columns_agree_across_backings(schedules):
    fast, comp = schedules("fast"), schedules("compiled")
    cols = comp.interval_columns()
    assert cols.dtype == np.float64 and cols.shape == (len(fast.interval_columns()), 8)
    assert fast.interval_columns().tobytes() == cols.tobytes()
    assert comp._intervals is None  # no objects built


@pytest.mark.parametrize("which", range(4))
def test_measuring_a_compiled_schedule_never_builds_rows(machine, schedules, which):
    comp = schedules("compiled")
    k = len(comp.interval_columns())
    engine = Engine(machine, max_trace_segments=_segment_counts(k)[which])
    engine.measure(comp, label="cell")
    assert comp._intervals is None
    assert comp._records is None


@pytest.mark.parametrize("which", range(4))
def test_array_and_list_backed_schedules_measure_identically(
    machine, schedules, which
):
    fast, comp = schedules("fast"), schedules("compiled")
    k = len(comp.interval_columns())
    assert k > 2
    engine = Engine(machine, max_trace_segments=_segment_counts(k)[which])
    assert _bits(engine._coarsen(fast)) == _bits(engine._coarsen(comp))
    m_fast = engine.measure(fast, label="cell")
    m_comp = engine.measure(comp, label="cell")
    assert pickle.dumps(m_fast) == pickle.dumps(m_comp)
    if k <= engine.max_trace_segments:  # uncoarsened: the rows themselves
        assert _bits(engine._coarsen(comp)) == comp.interval_columns().tobytes()
