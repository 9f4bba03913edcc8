"""Distributed-memory extension (paper §VIII): MPI-style communication
cost models, interconnect power plane, the distributed EP study
comparing CAPS against SUMMA/2.5D/1.5D baselines, and the
discrete-event network simulator that prices whole schedules on
configurable topologies."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bsp": ("BspResult", "BspSimulator", "Superstep", "bsp_constants", "caps_program",
             "idle_times", "rank_energies", "summa_program"),
    ".comm": ("CommCost", "allgather", "alltoall", "broadcast", "pipelined_broadcast",
              "point_to_point", "reduce"),
    ".dmatmul": ("CapsDistributed", "DistributedMatmul", "RankProfile", "Summa15D",
                 "Summa25D", "Summa2D", "strassen_flops"),
    ".netsim": ("NET_ALGORITHMS", "NetRunResult", "NetworkConfig", "NetworkSweep",
                "NetworkSweepResult", "broadcast_events", "bsp_events", "build_events",
                "simulate", "simulate_bsp"),
    ".network": ("TOPOLOGY_KINDS", "ClusterSpec", "InterconnectSpec", "Topology"),
    ".study": ("DistributedEPStudy", "DistributedRun", "DistributedStudyResult"),
})
