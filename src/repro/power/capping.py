"""RAPL power limiting (PL1) — enforcement, not just measurement.

Real RAPL is a control loop as well as a meter: writing
``MSR_PKG_POWER_LIMIT`` makes the package throttle frequency until its
running-average power respects the limit.  The paper's motivation —
facilities with hard power envelopes — is exactly the scenario this
serves, so the emulation closes the loop:

* :class:`PowerLimit` models the PL1 register (watts + time window);
* :func:`enforce_power_limit` finds the highest P-state at which a
  workload's average package power respects the limit, re-simulating
  the run at that state (steady-state throttling, the same semantics as
  :mod:`repro.machine.governor`), and reports the performance cost.

For machines whose frequency domain has a single P-state (the paper's
BIOS configuration) an infeasible limit is reported as such rather than
throttled — there is nothing to throttle with.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..machine.specs import MachineSpec
from ..util.errors import ValidationError
from ..util.validation import require_positive

__all__ = ["PowerLimit", "CappedRun", "enforce_power_limit"]


@dataclass(frozen=True)
class PowerLimit:
    """One RAPL package power limit (PL1-style)."""

    watts: float
    time_window_s: float = 1.0
    enabled: bool = True

    def __post_init__(self) -> None:
        require_positive(self.watts, "watts")
        require_positive(self.time_window_s, "time_window_s")

    def permits(self, avg_watts: float) -> bool:
        """Whether a sustained *avg_watts* respects the limit."""
        return (not self.enabled) or avg_watts <= self.watts + 1e-9


@dataclass(frozen=True)
class CappedRun:
    """Outcome of enforcing a power limit on one workload."""

    limit: PowerLimit
    pstate_index: int
    feasible: bool
    measurement: object  # RunMeasurement (import cycle avoidance)
    uncapped_measurement: object

    @property
    def slowdown(self) -> float:
        """Runtime stretch paid for the cap (1.0 when uncapped)."""
        return (
            self.measurement.elapsed_s / self.uncapped_measurement.elapsed_s
        )

    @property
    def power_saving_w(self) -> float:
        """Average watts shaved off by the throttle."""
        return (
            self.uncapped_measurement.avg_power_w() - self.measurement.avg_power_w()
        )


def enforce_power_limit(
    machine: MachineSpec,
    graph,
    threads: int,
    limit: PowerLimit,
    engine_factory=None,
) -> CappedRun:
    """Throttle *graph* until its average package power fits *limit*.

    Walks the machine's P-states from fastest to slowest, re-simulating
    at each until the limit is met (RAPL's steady-state behaviour for a
    sustained workload).  Returns a :class:`CappedRun`; ``feasible`` is
    False when even the slowest P-state exceeds the limit (the
    measurement then reflects that slowest state).
    """
    from ..sim.engine import Engine

    if engine_factory is None:
        engine_factory = Engine
    states = list(range(len(machine.frequency.pstates) - 1, -1, -1))
    uncapped = engine_factory(machine).run(graph, threads, label="uncapped")
    if limit.permits(uncapped.avg_power_w()):
        return CappedRun(limit, states[0], True, uncapped, uncapped)

    chosen = None
    for index in states[1:]:
        variant = replace(machine, frequency=machine.frequency.at_state(index))
        meas = engine_factory(variant).run(graph, threads, label=f"pstate{index}")
        chosen = (index, meas)
        if limit.permits(meas.avg_power_w()):
            return CappedRun(limit, index, True, meas, uncapped)
    if chosen is None:
        # Single-P-state machine: nothing to throttle with.
        return CappedRun(limit, states[0], False, uncapped, uncapped)
    index, meas = chosen
    return CappedRun(limit, index, False, meas, uncapped)
