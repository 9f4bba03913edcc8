"""Per-plane energy model.

Maps *machine activity* (which cores are busy, flops retired, bytes moved
at each memory level) onto the three RAPL power planes the paper measures
(§V-C: "the entire package and the primary power plane (PP0) that
corresponds to the CPU socket"), plus the DRAM plane for completeness:

* **PP0** — the cores: per-active-core base power, energy per retired
  flop, and energy per byte moved through the *private* caches (L1/L2).
* **PACKAGE** — PP0 plus package static power plus *uncore* energy: the
  shared L3 and the memory-controller traffic.  This is the plane whose
  averages appear in the paper's Table III.
* **DRAM** — background DRAM power plus energy per byte transferred on
  the memory channels.

The coefficients shipped in :func:`repro.machine.specs.haswell_e3_1225`
are calibrated (see ``repro.sim.calibration``) so the study lands inside
the paper's observed 17.7-56.4 W package envelope; the *model structure*
(affine in active cores, linear in traffic) is what produces the paper's
shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import ValidationError
from ..util.validation import require_nonnegative

__all__ = ["EnergyModel", "Activity", "PlaneEnergy", "ordered_sum"]

#: Canonical plane names, matching :mod:`repro.power.planes`.
_PKG = "PACKAGE"
_PP0 = "PP0"
_DRAM = "DRAM"


def ordered_sum(column) -> float:
    """Sum of *column* folded in its order from 0.0 — the bits of a
    ``for`` loop of float additions.  ``np.sum`` adds pairwise and may
    differ in the last bits, so totals that must reproduce never use it.
    """
    column = np.asarray(column, dtype=np.float64)
    if not len(column):
        return 0.0
    return 0.0 + np.add.accumulate(column).item(-1)


@dataclass(frozen=True)
class Activity:
    """Machine activity over one accounting interval — or over many:
    every field may instead be an equal-length float64 column, one
    element per interval (the engine measures all buckets at once).

    Attributes
    ----------
    dt:
        Interval length in seconds.
    busy_core_seconds:
        Integral of active-core count over the interval (e.g. 3 cores
        busy for the whole interval -> ``3 * dt``).
    flops:
        Double-precision flops retired in the interval (all cores).
    bytes_l1 / bytes_l2 / bytes_l3:
        Fill traffic into each cache level.
    bytes_dram:
        Bytes transferred on the memory channels.
    """

    dt: float
    busy_core_seconds: float = 0.0
    flops: float = 0.0
    bytes_l1: float = 0.0
    bytes_l2: float = 0.0
    bytes_l3: float = 0.0
    bytes_dram: float = 0.0

    def __post_init__(self) -> None:
        require_nonnegative(self.dt, "dt")
        for name in (
            "busy_core_seconds",
            "flops",
            "bytes_l1",
            "bytes_l2",
            "bytes_l3",
            "bytes_dram",
        ):
            require_nonnegative(getattr(self, name), name)


@dataclass(frozen=True)
class PlaneEnergy:
    """Energy attributed to each plane over some interval, in joules.

    ``package`` *includes* ``pp0`` (RAPL semantics: the package counter
    covers the cores plus uncore), so total wall energy is
    ``package + dram``, never ``package + pp0 + dram``.  Evaluated on an
    :class:`Activity` of columns, each field is a column of per-interval
    joules.
    """

    package: float
    pp0: float
    dram: float

    @property
    def total(self) -> float:
        """Total wall energy: package (which contains PP0) plus DRAM."""
        return self.package + self.dram

    def as_dict(self) -> dict[str, float]:
        return {_PKG: self.package, _PP0: self.pp0, _DRAM: self.dram}

    def __add__(self, other: "PlaneEnergy") -> "PlaneEnergy":
        return PlaneEnergy(
            self.package + other.package,
            self.pp0 + other.pp0,
            self.dram + other.dram,
        )

    @staticmethod
    def zero() -> "PlaneEnergy":
        return PlaneEnergy(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class EnergyModel:
    """Coefficients of the affine-plus-linear power model.

    All *_w* values are watts; all *_j_per_flop* / *_j_per_byte* values
    are joules per unit of work.  ``dvfs_factor`` scales the dynamic
    terms (everything except the statics) for non-nominal P-states.
    """

    package_static_w: float = 9.0
    core_active_w: float = 1.5
    j_per_flop: float = 150e-12
    j_per_byte_l1: float = 6e-12
    j_per_byte_l2: float = 12e-12
    j_per_byte_l3: float = 30e-12
    uncore_j_per_dram_byte: float = 1.0e-9
    dram_static_w: float = 1.0
    dram_j_per_byte: float = 0.4e-9

    def __post_init__(self) -> None:
        for name in (
            "package_static_w",
            "core_active_w",
            "j_per_flop",
            "j_per_byte_l1",
            "j_per_byte_l2",
            "j_per_byte_l3",
            "uncore_j_per_dram_byte",
            "dram_static_w",
            "dram_j_per_byte",
        ):
            require_nonnegative(getattr(self, name), name)

    def interval_energy(self, activity: Activity, dvfs_factor: float = 1.0) -> PlaneEnergy:
        """Energy per plane for one activity interval, or per interval
        for an :class:`Activity` of columns: the same expressions,
        broadcast, so each element has the bits of a scalar call.

        ``dvfs_factor`` multiplies the dynamic terms; 1.0 corresponds to
        the nominal P-state (the paper's fixed-frequency configuration).
        """
        if dvfs_factor <= 0:
            raise ValidationError(f"dvfs_factor must be > 0, got {dvfs_factor}")
        pp0 = dvfs_factor * (
            self.core_active_w * activity.busy_core_seconds
            + self.j_per_flop * activity.flops
            + self.j_per_byte_l1 * activity.bytes_l1
            + self.j_per_byte_l2 * activity.bytes_l2
        )
        uncore = dvfs_factor * (
            self.j_per_byte_l3 * activity.bytes_l3
            + self.uncore_j_per_dram_byte * activity.bytes_dram
        )
        package = self.package_static_w * activity.dt + pp0 + uncore
        dram = (
            self.dram_static_w * activity.dt
            + self.dram_j_per_byte * activity.bytes_dram
        )
        return PlaneEnergy(package=package, pp0=pp0, dram=dram)

    def idle_power_w(self) -> dict[str, float]:
        """Steady-state power of an idle machine, per plane."""
        return {_PKG: self.package_static_w, _PP0: 0.0, _DRAM: self.dram_static_w}

    def idle_energy(self, dt: float) -> PlaneEnergy:
        """Energy burnt by an idle machine over *dt* seconds."""
        require_nonnegative(dt, "dt")
        return PlaneEnergy(
            package=self.package_static_w * dt,
            pp0=0.0,
            dram=self.dram_static_w * dt,
        )

    def replace(self, **kwargs) -> "EnergyModel":
        """Return a copy with some coefficients overridden — used by the
        calibration search."""
        from dataclasses import replace as _dc_replace

        return _dc_replace(self, **kwargs)
