"""Energy-performance ratios — the paper's Equations 1-4 (§III).

The paper deliberately leaves the units of the energy term open ("we
explicitly avoid defining the measurement criteria and units associated
with the power measurement... to permit flexibility"); its own tables
use the *average power* read from RAPL as ``EAvg``.  These functions
therefore accept plain numbers, and :class:`EPMeasurement` adapts a
:class:`~repro.sim.measurement.RunMeasurement` under either convention:

* ``"power"`` (paper's tables): EAvg is average watts, so
  ``EP = EAvg / T`` has units W/s and Table IV's magnitudes follow;
* ``"energy"``: EAvg is joules, making ``EP`` the average watts.

Eq. 1:  EP_p = EAvg_p / T_p
Eq. 2:  EP_t = (EAvg_s + max(EAvg_p)) / (T_s + max(T_p))
Eq. 3:  EAvg_n = sum_{0..F} PPL_p          (see repro.power.planes)
Eq. 4:  EP_t with Eq. 3 substituted for both terms
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

from ..power.planes import Plane, aggregate_planes
from ..sim.measurement import RunMeasurement
from ..util.errors import ValidationError
from ..util.validation import require_nonempty, require_nonnegative, require_positive

__all__ = [
    "EPConvention",
    "eavg",
    "ep_ratio",
    "ep_total",
    "ep_total_planes",
    "EPMeasurement",
]

EPConvention = Literal["power", "energy"]


def ep_ratio(eavg: float, time_s: float) -> float:
    """Eq. 1: the energy-performance ratio ``EP_p = EAvg_p / T_p``."""
    require_nonnegative(eavg, "eavg")
    require_positive(time_s, "time_s")
    return eavg / time_s


def eavg(joules: float, time_s: float, convention: EPConvention) -> float:
    """The EAvg term of a run from its joules on one plane and its
    length: average watts under ``"power"``, the joules under
    ``"energy"``."""
    if convention == "power":
        require_positive(time_s, "time_s")
        return joules / time_s
    if convention == "energy":
        return joules
    raise ValidationError(f"unknown convention {convention!r}")


def ep_total(
    eavg_s: float,
    eavg_parallel: Sequence[float],
    t_s: float,
    t_parallel: Sequence[float],
) -> float:
    """Eq. 2: mixed sequential-parallel energy performance.

    ``EP_t = (EAvg_s + max(EAvg_p)) / (T_s + max(T_p))`` — the
    sequential portion's energy/time plus the *slowest/most expensive
    parallel unit* (the max over the P units' readings).
    """
    require_nonnegative(eavg_s, "eavg_s")
    require_nonnegative(t_s, "t_s")
    eavg_parallel = require_nonempty(list(eavg_parallel), "eavg_parallel")
    t_parallel = require_nonempty(list(t_parallel), "t_parallel")
    for v in eavg_parallel:
        require_nonnegative(v, "eavg_parallel[i]")
    for v in t_parallel:
        require_nonnegative(v, "t_parallel[i]")
    denom = t_s + max(t_parallel)
    if denom <= 0:
        raise ValidationError("total time must be positive")
    return (eavg_s + max(eavg_parallel)) / denom


def ep_total_planes(
    planes_sequential: Mapping[Plane | str, float],
    planes_parallel: Sequence[Mapping[Plane | str, float]],
    t_s: float,
    t_parallel: Sequence[float],
) -> float:
    """Eq. 4: Eq. 2 with each EAvg term expanded per Eq. 3 over the
    measurable power planes."""
    planes_parallel = require_nonempty(list(planes_parallel), "planes_parallel")
    eavg_s = aggregate_planes(planes_sequential) if planes_sequential else 0.0
    eavg_p = [aggregate_planes(p) for p in planes_parallel]
    return ep_total(eavg_s, eavg_p, t_s, t_parallel)


@dataclass(frozen=True)
class EPMeasurement:
    """EP view over one simulated run.

    Parameters
    ----------
    measurement:
        The run's observables.
    plane:
        Which power plane supplies ``EAvg`` (paper: PACKAGE).
    convention:
        ``"power"`` (paper's tables: EAvg = average watts) or
        ``"energy"`` (EAvg = joules).
    """

    measurement: RunMeasurement
    plane: Plane = Plane.PACKAGE
    convention: EPConvention = "power"

    @property
    def eavg(self) -> float:
        """The EAvg term under the chosen convention."""
        m = self.measurement
        return eavg(m.energy_j(self.plane), m.elapsed_s, self.convention)

    @property
    def time_s(self) -> float:
        return self.measurement.elapsed_s

    @property
    def ep(self) -> float:
        """Eq. 1 applied to this run."""
        return ep_ratio(self.eavg, self.time_s)
