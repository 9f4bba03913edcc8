"""Seed-pinned random case generators with deterministic shrinking.

Every generator is a pure function of an integer seed: the harness
derives per-case seeds as ``base_seed + index``, so any failure printed
as *seed S* reproduces with ``python -m repro verify --cases 1 --seed S``
— no pickle files, no state.

When a case fails, :func:`shrink_graph_case` greedily minimizes it:
truncate the task list (a prefix of a :class:`TaskGraph` is always a
valid DAG, because dependencies and creators only ever reference
earlier tids), drop the thread count to 1, reset the policy to FIFO and
the machine to the paper's Haswell — re-checking the failure predicate
after each candidate and keeping only transformations that preserve it.

Hypothesis (when installed) is layered *on top* of the same generators:
:func:`case_strategy` maps a drawn integer seed through
:func:`gen_graph_case`, so Hypothesis shrinks over seeds while the
deterministic shrinker minimizes the failing case itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

from ..core.study import StudyConfig
from ..machine.specs import (
    MachineSpec,
    dual_socket_haswell,
    generic_smp,
    haswell_e3_1225,
)
from ..runtime.arena import TaskArena
from ..runtime.cost import TaskCost, ZERO_COST
from ..util.units import GHZ, GiB, MiB
from .taskgraph import TaskGraph

__all__ = [
    "POLICIES",
    "GraphCase",
    "AlgorithmCase",
    "LoweringCase",
    "NetworkCase",
    "NumericsCase",
    "ScalingCase",
    "case_strategy",
    "gen_algorithm_case",
    "gen_graph_case",
    "gen_lowering_case",
    "gen_machine",
    "gen_network_case",
    "gen_numerics_case",
    "gen_scaling_case",
    "gen_study_config",
    "shrink_graph_case",
]

POLICIES: tuple[str, ...] = ("fifo", "lifo", "critical", "steal")

#: Algorithms exercised by the bound/scaling cases (paper's fixtures).
_ALGORITHM_NAMES: tuple[str, ...] = ("openblas", "strassen", "caps")


# ---------------------------------------------------------------------------
# cases


@dataclass
class GraphCase:
    """One randomly generated scheduling/measurement case."""

    seed: int
    machine: MachineSpec
    graph: TaskGraph
    threads: int
    policy: str

    @cached_property
    def arena(self) -> TaskArena:
        """The case's DAG as the arena the event kernels run."""
        return self.graph.to_arena()

    def describe(self) -> str:
        costful = sum(1 for t in self.graph.tasks if not t.cost.is_zero)
        return (
            f"seed={self.seed} machine={self.machine.name} "
            f"tasks={len(self.graph)} (costful={costful}) "
            f"threads={self.threads} policy={self.policy}"
        )

    def command(self) -> str:
        """CLI line that regenerates (and re-checks) exactly this case."""
        return f"python -m repro verify --cases 1 --seed {self.seed}"


@dataclass(frozen=True)
class AlgorithmCase:
    """One (algorithm, n, threads) cell for the Eq. 8 bound checks."""

    seed: int
    machine: MachineSpec
    algorithm: str
    n: int
    threads: int

    def describe(self) -> str:
        return (
            f"seed={self.seed} machine={self.machine.name} "
            f"alg={self.algorithm} n={self.n} threads={self.threads}"
        )


@dataclass(frozen=True)
class LoweringCase:
    """One (algorithm, n, threads) cell for the templated-lowering
    differential: the columnar ``build_arena`` stamping must be
    bit-identical to the object lowering of
    :mod:`repro.testing.lowering`."""

    seed: int
    machine: MachineSpec
    algorithm: str
    n: int
    threads: int

    def describe(self) -> str:
        return (
            f"seed={self.seed} machine={self.machine.name} "
            f"alg={self.algorithm} n={self.n} threads={self.threads}"
        )


@dataclass(frozen=True)
class NumericsCase:
    """One configured dense algorithm at ``(n, threads)`` for the
    ``numerics_program`` family: its stamped numerics must reproduce
    the sequential :mod:`repro.linalg.fastmm` product byte for byte, in
    any linear extension of its DAG."""

    seed: int
    machine: MachineSpec
    algorithm: str
    params: tuple  # (name, value) constructor keyword pairs
    n: int
    threads: int

    def make(self):
        from ..algorithms.registry import make_algorithm

        return make_algorithm(self.algorithm, self.machine, **dict(self.params))

    def describe(self) -> str:
        params = [f"{k}={v}" for k, v in self.params]
        return " ".join(
            [f"seed={self.seed}", f"alg={self.algorithm}", *params,
             f"n={self.n}", f"threads={self.threads}"]
        )


@dataclass(frozen=True)
class NetworkCase:
    """One simulated distributed schedule for the ``network_sim``
    family: an event-lowered (algorithm, n, ranks) cell on a random
    topology/protocol, plus a small BSP program for the exact-equality
    bridge between the event simulator and the closed-form BSP model."""

    seed: int
    cluster: "object"  # ClusterSpec (deferred import keeps generators light)
    algorithm: str
    n: int
    ranks: int
    config: "object"  # repro.distributed.NetworkConfig
    bsp_n: int
    bsp_ranks: int
    bsp_imbalance: float

    def describe(self) -> str:
        return (
            f"seed={self.seed} alg={self.algorithm} n={self.n} "
            f"ranks={self.ranks} c={self.config.c} "
            f"topology={self.cluster.topology.kind} "
            f"protocol={self.config.protocol} chunks={self.config.chunks} "
            f"bsp=({self.bsp_n},{self.bsp_ranks})"
        )


@dataclass(frozen=True)
class ScalingCase:
    """One (algorithm, n, thread-sweep) series for the Eq. 5/6 checks."""

    seed: int
    machine: MachineSpec
    algorithm: str
    n: int
    threads: tuple[int, ...]

    def describe(self) -> str:
        return (
            f"seed={self.seed} machine={self.machine.name} "
            f"alg={self.algorithm} n={self.n} threads={self.threads}"
        )


# ---------------------------------------------------------------------------
# generators


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    """Sample log-uniformly in [lo, hi] (spans many magnitudes)."""
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def gen_machine(rng: random.Random) -> MachineSpec:
    """A random platform: the paper's Haswell, its dual-socket sibling,
    or a parameterized generic SMP (different balance every time)."""
    kind = rng.randrange(4)
    if kind == 0:
        return haswell_e3_1225()
    if kind == 1:
        return dual_socket_haswell()
    return generic_smp(
        cores=rng.choice((2, 4, 6, 8)),
        frequency_hz=rng.uniform(1.2, 4.0) * GHZ,
        flops_per_cycle=rng.choice((4.0, 8.0, 16.0)),
        l3_bytes=rng.choice((4, 8, 16, 32)) * MiB,
        dram_channels=rng.choice((1, 2)),
        dram_capacity_bytes=8 * GiB,
    )


def gen_cost(rng: random.Random) -> TaskCost:
    """A random task cost: zero-cost joins, single-dimension demands and
    full five-dimensional mixes all occur."""
    if rng.random() < 0.15:
        return ZERO_COST
    dims = {
        "flops": (1e3, 1e8),
        "bytes_l1": (64.0, 1e7),
        "bytes_l2": (64.0, 1e7),
        "bytes_l3": (64.0, 1e7),
        "bytes_dram": (64.0, 1e7),
    }
    kwargs: dict[str, float] = {}
    for name, (lo, hi) in dims.items():
        if rng.random() < 0.6:
            kwargs[name] = _log_uniform(rng, lo, hi)
    if not kwargs:
        kwargs["flops"] = _log_uniform(rng, 1e3, 1e8)
    return TaskCost(efficiency=rng.uniform(0.1, 1.0), **kwargs)


def gen_graph(rng: random.Random, max_tasks: int = 40) -> TaskGraph:
    """A random DAG: layered fan-out/fan-in with random dependencies,
    tied/untied tasks and creator links (all referencing earlier tids,
    which keeps every prefix a valid graph — the shrinker relies on
    this)."""
    n_tasks = rng.randint(1, max(1, max_tasks))
    graph = TaskGraph(name=f"random[{n_tasks}]")
    for tid in range(n_tasks):
        deps: list[int] = []
        if tid > 0 and rng.random() < 0.75:
            k = rng.randint(1, min(3, tid))
            deps = rng.sample(range(tid), k)
        created_by = rng.randrange(tid) if tid > 0 and rng.random() < 0.4 else None
        graph.add(
            f"t{tid}",
            gen_cost(rng),
            deps=deps,
            untied=rng.random() < 0.7,
            created_by=created_by,
        )
    return graph


def gen_graph_case(seed: int, max_tasks: int = 40) -> GraphCase:
    """The full case for one seed: machine + DAG + threads + policy."""
    rng = random.Random(seed)
    machine = gen_machine(rng)
    graph = gen_graph(rng, max_tasks=max_tasks)
    threads = rng.randint(1, min(machine.cores, 8))
    policy = rng.choice(POLICIES)
    return GraphCase(seed, machine, graph, threads, policy)


def gen_algorithm_case(seed: int) -> AlgorithmCase:
    """A small real-algorithm cell for the Eq. 8 / flop-count checks."""
    rng = random.Random(seed ^ 0x5EED8)
    machine = haswell_e3_1225() if rng.random() < 0.5 else gen_machine(rng)
    return AlgorithmCase(
        seed=seed,
        machine=machine,
        algorithm=rng.choice(_ALGORITHM_NAMES),
        n=rng.choice((64, 96, 128, 192, 256)),
        threads=rng.randint(1, min(machine.cores, 4)),
    )


def gen_lowering_case(seed: int) -> LoweringCase:
    """A templated-lowering differential cell.

    Sizes deliberately mix powers of two (pure recursion), odd sizes
    (odd-size peel levels), and sizes at/below the recursion cutoffs
    (leaf and grain emission) so every template branch gets stamped.
    """
    rng = random.Random(seed ^ 0xA7E4A)
    machine = haswell_e3_1225() if rng.random() < 0.5 else gen_machine(rng)
    return LoweringCase(
        seed=seed,
        machine=machine,
        algorithm=rng.choice(_ALGORITHM_NAMES),
        n=rng.choice((32, 48, 64, 96, 100, 128, 160, 192, 200, 256, 384)),
        threads=rng.randint(1, min(machine.cores, 4)),
    )


def gen_numerics_case(seed: int) -> NumericsCase:
    """A numerics-program cell.

    Variants cover Strassen pad, peel and classic, CAPS with packing on
    and off over mixed BFS/DFS depths, and blocked tiles; sizes mix
    powers of two with odd and non-power-of-two *n* (padding, peeling)
    and sizes at or below the cutoffs.  Cutoffs stay small so a case
    recurses several levels at modest *n*.
    """
    rng = random.Random(seed ^ 0x9E7A1C)
    algorithm = rng.choice(_ALGORITHM_NAMES)
    cutoff = rng.choice((8, 16, 32))
    if algorithm == "strassen":
        variant = rng.choice(("pad", "peel", "classic"))
        params = (("cutoff", cutoff), ("grain", cutoff * rng.choice((1, 2, 4))))
        if variant == "peel":
            params += (("odd_strategy", "peel"),)
        elif variant == "classic":
            params += (("classic", True),)
    elif algorithm == "caps":
        params = (
            ("cutoff_depth", rng.choice((0, 1, 2, 4))),
            ("leaf_cutoff", cutoff),
            ("dfs_grain", cutoff * rng.choice((1, 2, 4))),
            ("pack", rng.random() < 0.5),
        )
    else:
        params = ()
    return NumericsCase(
        seed=seed,
        machine=haswell_e3_1225(),
        algorithm=algorithm,
        params=params,
        n=rng.choice((17, 33, 48, 64, 96, 100, 127, 128, 130, 200, 256)),
        threads=rng.randint(1, 4),
    )


def gen_scaling_case(seed: int) -> ScalingCase:
    """A thread sweep (starting at 1) for the Eq. 5/6 scaling checks."""
    rng = random.Random(seed ^ 0x5CA11)
    machine = haswell_e3_1225() if rng.random() < 0.6 else gen_machine(rng)
    top = min(machine.cores, 4)
    threads = tuple(p for p in (1, 2, 3, 4) if p <= top)
    return ScalingCase(
        seed=seed,
        machine=machine,
        algorithm=rng.choice(_ALGORITHM_NAMES),
        n=rng.choice((64, 128)),
        threads=threads,
    )


#: Valid (ranks, c) pairs per event-simulated algorithm.  SUMMA needs a
#: square rank count; 2.5D needs ranks = c·p² with c | p; 1.5D needs
#: ranks = c·p with c | p; CAPS needs a power of seven.  Single-rank
#: entries exercise the degenerate no-communication path (Eq. 8 floor
#: is zero there).
_NETWORK_SHAPES: dict[str, tuple[tuple[int, int], ...]] = {
    "summa": ((1, 1), (4, 1), (9, 1), (16, 1), (25, 1), (36, 1)),
    "summa25d": ((8, 2), (32, 2), (27, 3), (9, 1), (128, 2)),
    "summa15d": ((4, 1), (8, 2), (12, 2), (27, 3), (18, 3)),
    "caps-dist": ((1, 1), (7, 1), (49, 1)),
}


def gen_network_case(seed: int) -> NetworkCase:
    """A network-simulation cell: random topology, protocol, broadcast
    pipelining and a shape-valid (algorithm, ranks, c) combination."""
    from ..distributed import ClusterSpec, InterconnectSpec, NetworkConfig, Topology
    from ..distributed.network import TOPOLOGY_KINDS

    rng = random.Random(seed ^ 0x4E7517)
    algorithm = rng.choice(tuple(_NETWORK_SHAPES))
    ranks, c = rng.choice(_NETWORK_SHAPES[algorithm])
    net = InterconnectSpec(
        hop_latency_s=rng.choice((0.0, 2.0e-7, 5.0e-7)),
        eager_threshold_bytes=rng.choice((math.inf, 1024.0, 65536.0)),
    )
    cluster = ClusterSpec(
        interconnect=net, topology=Topology(rng.choice(TOPOLOGY_KINDS))
    )
    config = NetworkConfig(
        protocol=rng.choice(("auto", "eager", "rendezvous")),
        chunks=rng.choice((1, 1, 2, 4)),
        c=c,
        efficiency=0.85 if algorithm == "caps-dist" else 0.90,
    )
    return NetworkCase(
        seed=seed,
        cluster=cluster,
        algorithm=algorithm,
        n=rng.choice((256, 512, 1024, 2048)),
        ranks=ranks,
        config=config,
        bsp_n=rng.choice((512, 1024, 4096)),
        bsp_ranks=rng.randint(1, 9),
        bsp_imbalance=rng.choice((0.0, 0.1, 0.4)),
    )


def gen_study_config(seed: int) -> StudyConfig:
    """A tiny randomized study matrix for the serial/parallel oracle.

    Sizes stay small so the differential study (which runs the matrix
    twice, once through a process pool, with real numerics) is cheap.
    """
    rng = random.Random(seed ^ 0x57CD1)
    sizes = tuple(sorted(rng.sample((32, 48, 64, 96), rng.randint(1, 2))))
    threads = tuple(range(1, rng.randint(2, 3)))
    return StudyConfig(
        sizes=sizes,
        threads=threads,
        seed=rng.randrange(2**16),
        execute_max_n=64,
        verify=True,
    )


# ---------------------------------------------------------------------------
# shrinking


def _prefix_graph(graph: TaskGraph, keep: int) -> TaskGraph:
    """The first *keep* tasks as a standalone graph (always a valid DAG:
    deps and creators reference earlier tids only)."""
    out = TaskGraph(name=f"{graph.name}[:{keep}]")
    for t in graph.tasks[:keep]:
        out.add(
            t.name,
            t.cost,
            deps=t.deps,
            compute=t.compute,
            untied=t.untied,
            created_by=t.created_by,
        )
    return out


def shrink_graph_case(
    case: GraphCase,
    still_fails: Callable[[GraphCase], bool],
    max_checks: int = 60,
) -> GraphCase:
    """Greedily minimize *case* while *still_fails* holds.

    Deterministic (no randomness): binary truncation of the task list,
    then single-task trimming from the tail, then simplifying threads,
    policy and machine.  Every candidate is re-checked; a candidate that
    no longer fails is discarded.  ``max_checks`` bounds the number of
    predicate evaluations so shrinking can never dominate a run.
    """
    checks = 0

    def fails(candidate: GraphCase) -> bool:
        nonlocal checks
        if checks >= max_checks:
            return False
        checks += 1
        try:
            return still_fails(candidate)
        except Exception:
            # A candidate that *errors* still reproduces a defect, but
            # not necessarily the same one — be conservative, drop it.
            return False

    current = case

    # 1. Binary truncation of the task list.
    while len(current.graph) > 1:
        half = len(current.graph) // 2
        candidate = GraphCase(
            current.seed,
            current.machine,
            _prefix_graph(current.graph, half),
            current.threads,
            current.policy,
        )
        if fails(candidate):
            current = candidate
        else:
            break

    # 2. Single-task trims from the tail.
    trimmed = True
    while trimmed and len(current.graph) > 1:
        trimmed = False
        candidate = GraphCase(
            current.seed,
            current.machine,
            _prefix_graph(current.graph, len(current.graph) - 1),
            current.threads,
            current.policy,
        )
        if fails(candidate):
            current = candidate
            trimmed = True

    # 3. Simplify the knobs.
    if current.threads != 1:
        candidate = GraphCase(
            current.seed, current.machine, current.graph, 1, current.policy
        )
        if fails(candidate):
            current = candidate
    if current.policy != "fifo":
        candidate = GraphCase(
            current.seed, current.machine, current.graph, current.threads, "fifo"
        )
        if fails(candidate):
            current = candidate
    if current.machine.name != "haswell-e3-1225":
        reference = haswell_e3_1225()
        if current.threads <= reference.cores:
            candidate = GraphCase(
                current.seed,
                reference,
                current.graph,
                current.threads,
                current.policy,
            )
            if fails(candidate):
                current = candidate

    return current


# ---------------------------------------------------------------------------
# optional Hypothesis layer


def case_strategy(max_tasks: int = 24):
    """A Hypothesis strategy over :class:`GraphCase` (seed-mapped).

    Raises :class:`ImportError` when Hypothesis is unavailable — callers
    in environments without it use the deterministic sampler directly.
    """
    import hypothesis.strategies as st  # deferred: optional dependency

    return st.integers(min_value=0, max_value=2**31 - 1).map(
        lambda s: gen_graph_case(s, max_tasks=max_tasks)
    )
