"""Per-core busy/idle timelines.

A read-only view of one core's busy spans, built by
:attr:`repro.runtime.scheduler.Schedule.timelines` from the kernel's
busy columns; it feeds the ASCII Gantt rendering in
:mod:`repro.reporting`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CoreTimeline"]


@dataclass
class CoreTimeline:
    """Busy intervals of one core, in chronological order."""

    core: int
    busy: list[tuple[float, float]] = field(default_factory=list)
    horizon: float = 0.0

    @property
    def busy_time(self) -> float:
        """Total seconds this core spent executing tasks."""
        return sum(e - s for s, e in self.busy)

    @property
    def idle_time(self) -> float:
        """Seconds idle within the horizon."""
        return self.horizon - self.busy_time

    @property
    def utilization(self) -> float:
        """busy / horizon (0 for an empty horizon)."""
        return self.busy_time / self.horizon if self.horizon > 0 else 0.0

    def is_busy_at(self, t: float) -> bool:
        """True when the core executes a task at time *t*."""
        return any(s <= t < e for s, e in self.busy)
