"""Core timelines and runtime statistics."""

import pytest

from repro.runtime.compiledpath import compiled_available
from repro.runtime.cost import TaskCost
from repro.runtime.openmp import OpenMP
from repro.runtime.scheduler import Scheduler
from repro.runtime.stats import RuntimeStats
from repro.runtime.timeline import CoreTimeline
from repro.util.errors import ValidationError


class TestTimeline:
    def test_busy_and_idle(self):
        tl = CoreTimeline(0, [(0.0, 1.0), (2.0, 3.0)], 4.0)
        assert tl.busy_time == pytest.approx(2.0)
        assert tl.idle_time == pytest.approx(2.0)
        assert tl.utilization == pytest.approx(0.5)

    def test_contiguous_intervals_merge(self, machine):
        """Back-to-back tasks on one core make one busy row, on every
        kernel."""
        omp = OpenMP("chain")
        a = omp.task("a", TaskCost(flops=1e9))
        omp.task("b", TaskCost(flops=1e9), deps=[a])
        engines = ["reference", "fast"] + ["compiled"] * compiled_available()[0]
        for engine in engines:
            sched = Scheduler(machine, threads=1, engine=engine).run(omp.graph)
            assert len(sched.busy_core) == 1
            (tl,) = sched.timelines
            assert tl.busy == [(0.0, sched.makespan)]

    def test_is_busy_at(self):
        tl = CoreTimeline(0, [(1.0, 2.0)], 2.0)
        assert not tl.is_busy_at(0.5)
        assert tl.is_busy_at(1.5)
        assert not tl.is_busy_at(2.0)  # half-open

    def test_empty_timeline(self):
        tl = CoreTimeline(0, horizon=1.0)
        assert tl.utilization == 0.0
        assert tl.idle_time == 1.0


class TestStats:
    def test_from_busy(self):
        stats = RuntimeStats.from_busy(
            4.0, [0, 1], [0.0, 0.0], [4.0, 2.0], task_count=10, threads=2
        )
        assert stats.busy_core_seconds == pytest.approx(6.0)
        assert stats.avg_parallelism == pytest.approx(1.5)
        assert stats.utilization == pytest.approx(0.75)
        assert stats.imbalance == pytest.approx(4.0 / 3.0)

    def test_zero_makespan(self, machine):
        stats = RuntimeStats.from_busy(0.0, [], [], [], task_count=0, threads=1)
        assert stats.avg_parallelism == 0.0
        assert stats.imbalance == 1.0
        assert type(stats.busy_core_seconds) is float
        # A zero-cost-only graph has no busy rows on any kernel.
        omp = OpenMP("joins")
        omp.task("j", TaskCost())
        engines = ["reference", "fast"] + ["compiled"] * compiled_available()[0]
        for engine in engines:
            sched = Scheduler(machine, threads=2, engine=engine).run(omp.graph)
            assert len(sched.busy_core) == 0, engine
            assert type(sched.stats.busy_core_seconds) is float, engine

    def test_threads_validated(self):
        with pytest.raises(ValidationError):
            RuntimeStats.from_busy(1.0, [], [], [], task_count=0, threads=0)
