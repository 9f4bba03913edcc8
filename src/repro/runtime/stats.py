"""Aggregate runtime statistics for one scheduled run."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import ValidationError

__all__ = ["RuntimeStats"]


@dataclass(frozen=True)
class RuntimeStats:
    """Summary of one schedule.

    Attributes
    ----------
    makespan:
        Simulated wall time of the run (the paper's ``T_p``).
    busy_core_seconds:
        Integral of active cores over time.
    threads:
        Worker count the run used.
    task_count:
        Tasks executed.
    avg_parallelism:
        busy_core_seconds / makespan — average active cores.
    utilization:
        avg_parallelism / threads.
    imbalance:
        max core busy time / mean core busy time (1.0 = perfectly even).
    migrations / steals:
        Tasks that ran away from their creator's core / tied tasks that
        could not get their preferred core.
    """

    makespan: float
    busy_core_seconds: float
    threads: int
    task_count: int
    avg_parallelism: float
    utilization: float
    imbalance: float
    migrations: int
    steals: int

    @staticmethod
    def from_busy(
        makespan: float,
        busy_core: np.ndarray,
        busy_start: np.ndarray,
        busy_end: np.ndarray,
        task_count: int,
        threads: int,
        migrations: int = 0,
        steals: int = 0,
    ) -> "RuntimeStats":
        """Build stats from a kernel's busy columns (see
        :class:`~repro.runtime.scheduler.Schedule`).

        ``bincount`` adds each span in input order, and every core's
        spans are in chronological order, so a core's busy time is the
        same sum, bit for bit, as :attr:`CoreTimeline.busy_time
        <repro.runtime.timeline.CoreTimeline.busy_time>`.
        """
        if threads < 1:
            raise ValidationError(f"threads must be >= 1, got {threads}")
        busy = np.bincount(
            np.asarray(busy_core, dtype=np.int64),
            weights=np.subtract(busy_end, busy_start, dtype=np.float64),
            minlength=threads,
        ).tolist()
        # An empty bincount is int64 zeros; start the sum from a float.
        total_busy = sum(busy, 0.0)
        avg_par = total_busy / makespan if makespan > 0 else 0.0
        mean_busy = total_busy / len(busy)
        imbalance = (max(busy) / mean_busy) if mean_busy > 0 else 1.0
        return RuntimeStats(
            makespan=makespan,
            busy_core_seconds=total_busy,
            threads=threads,
            task_count=task_count,
            avg_parallelism=avg_par,
            utilization=avg_par / threads,
            imbalance=imbalance,
            migrations=migrations,
            steals=steals,
        )
