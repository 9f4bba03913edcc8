"""Simulated SMP machine model.

Substitutes for the paper's physical platform (Intel E3-1225 Haswell,
§V-A): topology, frequency domains, cache hierarchy, DRAM and the
per-plane energy model.
"""

from .cache import CacheHierarchySpec, CacheLevelSpec
from .dram import DramSpec
from .energy import Activity, EnergyModel, PlaneEnergy
from .frequency import FrequencyDomain, PState, fixed_frequency
from .roofline import RooflinePoint, attainable_flops, locate, ridge_intensity
from .governor import (
    Governor,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
    governed_machine,
)
from .specs import MachineSpec, dual_socket_haswell, generic_smp, haswell_e3_1225
from .topology import CoreId, CoreSpec, MachineTopology, SocketSpec

__all__ = [
    "Activity",
    "CacheHierarchySpec",
    "CacheLevelSpec",
    "CoreId",
    "CoreSpec",
    "DramSpec",
    "EnergyModel",
    "FrequencyDomain",
    "Governor",
    "MachineSpec",
    "OndemandGovernor",
    "PerformanceGovernor",
    "PowersaveGovernor",
    "governed_machine",
    "MachineTopology",
    "PState",
    "PlaneEnergy",
    "RooflinePoint",
    "attainable_flops",
    "locate",
    "ridge_intensity",
    "SocketSpec",
    "fixed_frequency",
    "dual_socket_haswell",
    "generic_smp",
    "haswell_e3_1225",
]
