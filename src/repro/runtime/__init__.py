"""Simulated OpenMP-like task runtime.

Task costs, columnar task graphs (:class:`TaskArena`), an
OpenMP-flavoured construction API that emits them and the
discrete-event scheduler with shared L3/DRAM bandwidth contention.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".arena": ("TaskArena",),
    ".cost": ("ZERO_COST", "TaskCost"),
    ".openmp": ("OpenMP", "omp_num_threads"),
    ".rankevents": ("EventAggregate", "EventStreamBuilder", "RankEventProgram"),
    ".scheduler": ("ActivityInterval", "Schedule", "SchedulePolicy", "Scheduler",
                   "TaskRecord"),
    ".stats": ("RuntimeStats",),
    ".timeline": ("CoreTimeline",),
})
