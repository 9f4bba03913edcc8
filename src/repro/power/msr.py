"""Emulated model-specific registers (MSRs) for RAPL.

The paper reads energy through PAPI's RAPL component, which ultimately
reads Intel MSRs ("an MSR values file in /dev/cpu/*/msr", §V-C).  This
module emulates that bottom layer faithfully enough that the RAPL reader
above it has to solve the same problems real tools do:

* energies are exposed as *integer counters* in hardware energy units
  (``MSR_RAPL_POWER_UNIT`` advertises the unit; the Haswell default is
  2^-14 J ~ 61 uJ),
* counters are **32-bit and wrap around**, so long runs require
  wrap-aware differencing.

The simulation engine deposits joules via :meth:`MsrFile.deposit_energy`;
readers only ever see the quantized, wrapping registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..observability.metrics import counter
from ..util.errors import MeasurementError, ValidationError
from .planes import Plane

#: Emulated ``rdmsr`` calls — the simulated analogue of the paper's
#: RAPL polling rate.
_RAPL_READS = counter(
    "rapl.reads", description="emulated MSR register reads (rdmsr)"
)

__all__ = [
    "MSR_RAPL_POWER_UNIT",
    "MSR_PKG_ENERGY_STATUS",
    "MSR_PP0_ENERGY_STATUS",
    "MSR_PP1_ENERGY_STATUS",
    "MSR_DRAM_ENERGY_STATUS",
    "ENERGY_STATUS_MASK",
    "MsrFile",
    "deposit_planes",
]

# Architectural MSR addresses (Intel SDM vol. 4).
MSR_RAPL_POWER_UNIT = 0x606
MSR_PKG_ENERGY_STATUS = 0x611
MSR_PP0_ENERGY_STATUS = 0x639
MSR_PP1_ENERGY_STATUS = 0x641
MSR_DRAM_ENERGY_STATUS = 0x619

#: Energy-status counters are 32 bits wide.
ENERGY_STATUS_MASK = 0xFFFF_FFFF

#: MSR address per plane.
PLANE_MSR: dict[Plane, int] = {
    Plane.PACKAGE: MSR_PKG_ENERGY_STATUS,
    Plane.PP0: MSR_PP0_ENERGY_STATUS,
    Plane.PP1: MSR_PP1_ENERGY_STATUS,
    Plane.DRAM: MSR_DRAM_ENERGY_STATUS,
}


@dataclass
class MsrFile:
    """One package's RAPL MSR state.

    Parameters
    ----------
    energy_unit_exponent:
        ESU field of ``MSR_RAPL_POWER_UNIT``: energies are counted in
        units of ``2**-exponent`` joules.  Haswell server parts use 14.
    """

    energy_unit_exponent: int = 14
    _counters: dict[int, int] = field(default_factory=dict)
    _residual: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0 < self.energy_unit_exponent <= 32):
            raise ValidationError(
                f"energy_unit_exponent must be in (0, 32], got {self.energy_unit_exponent}"
            )
        for addr in PLANE_MSR.values():
            self._counters.setdefault(addr, 0)
            self._residual.setdefault(addr, 0.0)

    @property
    def joules_per_unit(self) -> float:
        """Energy represented by one counter increment."""
        return 2.0 ** (-self.energy_unit_exponent)

    def read(self, address: int) -> int:
        """``rdmsr``: return the raw register value.

        ``MSR_RAPL_POWER_UNIT`` returns the unit word (ESU in bits 12:8,
        as on real hardware); energy-status registers return the 32-bit
        wrapped counter.
        """
        _RAPL_READS.add()
        if address == MSR_RAPL_POWER_UNIT:
            return (self.energy_unit_exponent & 0x1F) << 8
        if address not in self._counters:
            raise MeasurementError(f"no such MSR: {hex(address)}")
        return self._counters[address]

    def deposit_energy(self, plane: Plane, joules: float) -> None:
        """Accumulate *joules* into the plane's counter (simulator side).

        Sub-unit residue is carried so that repeated tiny deposits are
        not lost to quantization.
        """
        if joules < 0:
            raise ValidationError(f"cannot deposit negative energy: {joules}")
        if plane not in PLANE_MSR:
            raise MeasurementError(f"plane {plane} has no RAPL MSR")
        addr = PLANE_MSR[plane]
        amount = self._residual[addr] + joules / self.joules_per_unit
        units = int(amount)
        self._residual[addr] = amount - units
        self._counters[addr] = (self._counters[addr] + units) & ENERGY_STATUS_MASK

    def counter_joules(self, plane: Plane) -> float:
        """Current counter value expressed in joules (still wrapped)."""
        return self.read(PLANE_MSR[plane]) * self.joules_per_unit

    @property
    def wrap_joules(self) -> float:
        """Energy span after which a counter wraps (~262 kJ at 2^-14 J)."""
        return (ENERGY_STATUS_MASK + 1) * self.joules_per_unit


def deposit_planes(msr, energy) -> None:
    """Deposit one run's PACKAGE, PP0 and DRAM joules (a
    :class:`~repro.machine.energy.PlaneEnergy`) into *msr*, in the
    order every simulated or replayed run uses."""
    msr.deposit_energy(Plane.PACKAGE, energy.package)
    msr.deposit_energy(Plane.PP0, energy.pp0)
    msr.deposit_energy(Plane.DRAM, energy.dram)
