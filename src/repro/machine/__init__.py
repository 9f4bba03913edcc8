"""Simulated SMP machine model.

Substitutes for the paper's physical platform (Intel E3-1225 Haswell,
§V-A): topology, frequency domains, cache hierarchy, DRAM and the
per-plane energy model.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cache": ("CacheHierarchySpec", "CacheLevelSpec"),
    ".dram": ("DramSpec",),
    ".energy": ("Activity", "EnergyModel", "PlaneEnergy"),
    ".frequency": ("FrequencyDomain", "PState", "fixed_frequency"),
    ".governor": ("Governor", "OndemandGovernor", "PerformanceGovernor", "PowersaveGovernor",
                  "governed_machine"),
    ".roofline": ("RooflinePoint", "attainable_flops", "locate", "ridge_intensity"),
    ".specs": ("MachineSpec", "dual_socket_haswell", "generic_smp", "haswell_e3_1225"),
    ".topology": ("CoreId", "CoreSpec", "MachineTopology", "SocketSpec"),
})
