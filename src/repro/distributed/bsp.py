"""BSP superstep simulation of distributed programs (§VIII extension).

The closed-form rank models in :mod:`repro.distributed.dmatmul` assume
perfectly balanced ranks.  Real distributed runs are not balanced, and
the paper's Eq. 2/4 take ``max`` over parallel units precisely because
the *slowest* unit defines the run.  This module supplies the missing
dynamics with the classic Bulk-Synchronous-Parallel cost model:

* a program is a list of :class:`Superstep`s, each giving every rank a
  compute time and a communication volume (an *h-relation*: the largest
  per-rank in/out volume);
* superstep wall time = ``max_r compute_r`` + ``g * h + L``, where
  ``g`` is seconds/byte through the network and ``L`` the barrier
  latency;
* per-rank idle time (waiting at the barrier for stragglers) is
  accounted, which is exactly what drags the EP ratio: a rank burns
  static and link power while it waits.

:func:`summa_program` and :func:`caps_program` lower the §VIII
algorithms to supersteps, with an optional *imbalance* factor that
perturbs per-rank compute deterministically — the knob for studying how
stragglers interact with energy-performance scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..core.bounds import OMEGA_STRASSEN, communication_bound_words
from ..power.planes import Plane
from ..util.errors import ValidationError
from ..util.validation import require_nonempty, require_nonnegative, require_positive
from .dmatmul import strassen_flops
from .network import ClusterSpec

__all__ = [
    "Superstep",
    "BspResult",
    "BspSimulator",
    "bsp_constants",
    "idle_times",
    "rank_energies",
    "summa_program",
    "caps_program",
]

_WORD = 8


def bsp_constants(net, ranks: int) -> tuple[float, float]:
    """``(g, L)`` of the BSP cost model: seconds/byte through the
    network and the barrier latency.  Shared verbatim by the closed
    form and the event lowering (:func:`repro.distributed.netsim.
    bsp_events`) so the two price a superstep identically."""
    g = 1.0 / net.bandwidth_bytes_per_s
    barrier_l = net.latency_s * max(1.0, math.log2(max(ranks, 2)))
    return g, barrier_l


def idle_times(
    total: float, comm_total: float, compute: Sequence[float]
) -> list[float]:
    """Per-rank barrier-wait time: the run's total compute window minus
    the rank's own compute, floored at zero (floating-point rounding
    can push the slowest rank a few ulps negative)."""
    window = total - comm_total
    return [max(0.0, window - c) for c in compute]


def rank_energies(
    cluster: ClusterSpec,
    total: float,
    compute: Sequence[float],
    comm_bytes: Sequence[float],
) -> list[dict[Plane, float]]:
    """Per-rank plane energies of one simulated run.

    Shared by :class:`BspSimulator` and the event-simulated BSP path —
    both feed it the same floats, so the energies agree exactly."""
    node = cluster.node
    net = cluster.interconnect
    em = node.energy
    energies = []
    for c, b in zip(compute, comm_bytes):
        pkg = em.package_static_w * total + node.cores * em.core_active_w * c
        dram = em.dram_static_w * total
        psys = net.link_static_w * total + net.transfer_energy_j(b)
        energies.append({Plane.PACKAGE: pkg, Plane.DRAM: dram, Plane.PSYS: psys})
    return energies


@dataclass(frozen=True)
class Superstep:
    """One BSP superstep.

    Attributes
    ----------
    name:
        Diagnostic label.
    compute_s:
        Per-rank compute seconds (len = ranks).
    h_bytes:
        Per-rank communication volume (max of in/out), bytes.
    """

    name: str
    compute_s: tuple[float, ...]
    h_bytes: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.compute_s) != len(self.h_bytes):
            raise ValidationError(
                f"superstep {self.name!r}: compute/comm length mismatch"
            )
        for v in self.compute_s:
            require_nonnegative(v, "compute_s")
        for v in self.h_bytes:
            require_nonnegative(v, "h_bytes")

    @property
    def ranks(self) -> int:
        return len(self.compute_s)


@dataclass
class BspResult:
    """Timings and energies of one simulated BSP program."""

    ranks: int
    total_time_s: float
    compute_time_s: list[float]  # per rank
    comm_time_s: float
    idle_time_s: list[float]  # per rank (barrier waits)
    rank_energy_j: list[dict[Plane, float]]

    @property
    def max_idle_fraction(self) -> float:
        """Largest per-rank share of the run spent waiting at barriers."""
        if self.total_time_s <= 0:
            return 0.0
        return max(self.idle_time_s) / self.total_time_s

    def cluster_energy_j(self) -> float:
        """Total joules across ranks (independent planes summed)."""
        return sum(
            e[Plane.PACKAGE] + e[Plane.DRAM] + e[Plane.PSYS]
            for e in self.rank_energy_j
        )

    def ep(self) -> float:
        """Eq. 4 over the simulated ranks (power convention)."""
        from ..core.ep import ep_total_planes

        per_rank = [
            {p: e[p] / self.total_time_s for p in e} for e in self.rank_energy_j
        ]
        return ep_total_planes({}, per_rank, 0.0, [self.total_time_s] * self.ranks)


class BspSimulator:
    """Runs superstep programs on a cluster spec."""

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster

    def run(self, program: Sequence[Superstep]) -> BspResult:
        """Simulate *program*; all supersteps must agree on rank count."""
        program = require_nonempty(list(program), "program")
        ranks = program[0].ranks
        for step in program:
            if step.ranks != ranks:
                raise ValidationError(
                    f"superstep {step.name!r} has {step.ranks} ranks, expected {ranks}"
                )
        net = self.cluster.interconnect
        g, barrier_l = bsp_constants(net, ranks)

        # Accumulation discipline: compute and comm are added to the
        # running total *separately* (fl((prev + c) + m), never
        # fl(prev + (c + m))) because that is the addition sequence the
        # event lowering's dependency chain performs — the exact-match
        # differential oracle against repro.distributed.netsim depends
        # on it.
        total = 0.0
        comm_total = 0.0
        compute = [0.0] * ranks
        comm_bytes = [0.0] * ranks
        for step in program:
            step_compute = max(step.compute_s)
            h = max(step.h_bytes)
            step_comm = g * h + barrier_l
            total += step_compute
            total += step_comm
            comm_total += step_comm
            for r in range(ranks):
                compute[r] += step.compute_s[r]
                comm_bytes[r] += step.h_bytes[r]

        return BspResult(
            ranks=ranks,
            total_time_s=total,
            compute_time_s=compute,
            comm_time_s=comm_total,
            idle_time_s=idle_times(total, comm_total, compute),
            rank_energy_j=rank_energies(self.cluster, total, compute, comm_bytes),
        )


def _imbalanced(base: float, ranks: int, imbalance: float, salt: int) -> tuple[float, ...]:
    """Deterministic per-rank compute times with a +/- *imbalance*
    fractional spread (a straggler pattern, not random noise)."""
    require_nonnegative(imbalance, "imbalance")
    if ranks == 1 or imbalance == 0:
        return tuple([base] * ranks)
    out = []
    for r in range(ranks):
        # Simple deterministic hash in [-1, 1].
        h = math.sin(1000.0 * (r + 1) + salt * 7.0)
        out.append(base * (1.0 + imbalance * h))
    return tuple(out)


def summa_program(
    cluster: ClusterSpec, n: int, ranks: int, imbalance: float = 0.0
) -> list[Superstep]:
    """SUMMA as sqrt(P) supersteps: broadcast a panel, multiply it."""
    require_positive(n, "n")
    require_positive(ranks, "ranks")
    grid = max(1, int(round(math.sqrt(ranks))))
    steps = grid
    flops_per_rank = 2.0 * float(n) ** 3 / ranks / steps
    rate = cluster.node.machine_peak_flops * 0.9
    panel_bytes = 2.0 * (n / grid) * (n / grid) * _WORD  # A and B panels
    program = []
    for s in range(steps):
        program.append(
            Superstep(
                name=f"summa-step{s}",
                compute_s=_imbalanced(flops_per_rank / rate, ranks, imbalance, s),
                h_bytes=tuple([panel_bytes] * ranks),
            )
        )
    return program


def caps_program(
    cluster: ClusterSpec,
    n: int,
    ranks: int,
    imbalance: float = 0.0,
    leaf_cutoff: int = 64,
) -> list[Superstep]:
    """CAPS as log7(P) BFS supersteps plus one local-compute superstep.

    Each BFS step redistributes operands (its share of the Eq. 8
    bandwidth volume); the final superstep does the local Strassen
    work.
    """
    require_positive(n, "n")
    require_positive(ranks, "ranks")
    bfs_steps = max(1, math.ceil(math.log(ranks, 7))) if ranks > 1 else 0
    m_words = cluster.node_memory_words()
    total_words = communication_bound_words(n, ranks, m_words, OMEGA_STRASSEN).words
    per_step_bytes = total_words * _WORD / max(bfs_steps, 1)

    # Local flops: Strassen count divided over ranks.
    flops = strassen_flops(n, leaf_cutoff)
    rate = cluster.node.machine_peak_flops * 0.85

    program = []
    for step in range(bfs_steps):
        program.append(
            Superstep(
                name=f"caps-bfs{step}",
                compute_s=tuple([0.0] * ranks),
                h_bytes=tuple([per_step_bytes] * ranks),
            )
        )
    program.append(
        Superstep(
            name="caps-local",
            compute_s=_imbalanced(flops / ranks / rate, ranks, imbalance, 99),
            h_bytes=tuple([0.0] * ranks),
        )
    )
    return program
