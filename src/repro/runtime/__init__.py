"""Simulated OpenMP-like task runtime.

Task costs, columnar task graphs (:class:`TaskArena`), an
OpenMP-flavoured construction API that emits them and the
discrete-event scheduler with shared L3/DRAM bandwidth contention.
"""

from .arena import TaskArena
from .cost import ZERO_COST, TaskCost
from .rankevents import EventAggregate, EventStreamBuilder, RankEventProgram
from .openmp import OpenMP, omp_num_threads
from .scheduler import (
    ActivityInterval,
    Schedule,
    SchedulePolicy,
    Scheduler,
    TaskRecord,
)
from .stats import RuntimeStats
from .timeline import CoreTimeline

__all__ = [
    "ActivityInterval",
    "CoreTimeline",
    "EventAggregate",
    "EventStreamBuilder",
    "OpenMP",
    "RankEventProgram",
    "RuntimeStats",
    "Schedule",
    "SchedulePolicy",
    "Scheduler",
    "TaskArena",
    "TaskCost",
    "TaskRecord",
    "ZERO_COST",
    "omp_num_threads",
]
