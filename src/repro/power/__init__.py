"""Power measurement substrate.

Emulates the paper's measurement stack (§V-C): Intel RAPL MSR counters,
a wrap-aware RAPL reader, a PAPI-like component API, and power traces
with the average/peak statistics the evaluation tabulates.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".capping": ("CappedRun", "PowerLimit", "enforce_power_limit"),
    ".msr": ("ENERGY_STATUS_MASK", "MSR_DRAM_ENERGY_STATUS", "MSR_PKG_ENERGY_STATUS",
             "MSR_PP0_ENERGY_STATUS", "MSR_RAPL_POWER_UNIT", "MsrFile"),
    ".papi": ("RAPL_EVENTS", "EventSet", "EventSetState", "PapiComponent", "PapiLibrary"),
    ".planes": ("PAPER_PLANES", "Plane", "PlaneSet", "aggregate_planes"),
    ".rapl": ("RaplDomain", "RaplReader"),
    ".sampling": ("PowerSegment", "PowerTrace"),
})
