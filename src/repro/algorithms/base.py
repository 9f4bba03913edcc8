"""Common interface of the three matrix-multiplication algorithms.

Each algorithm (§IV: OpenBLAS-style blocked, Strassen-Winograd, CAPS)
*lowers* a problem instance to a :class:`~repro.runtime.task.TaskGraph`
whose tasks carry both the analytical cost vectors (driving the
simulator) and optional numpy closures (performing the real numerics so
results can be verified against ``numpy.matmul``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..linalg.dense import random_matrix, working_set_bytes
from ..linalg.verify import VerificationReport, verify_matmul
from ..machine.specs import MachineSpec
from ..observability import trace
from ..observability.metrics import counter, gauge
from ..runtime.arena import TaskArena
from ..runtime.replay import replay_numerics
from ..runtime.task import TaskGraph
from ..util.deprecation import warn_deprecated
from ..util.errors import ConfigurationError, ValidationError
from ..util.validation import require_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.scheduler import Schedule

__all__ = [
    "BuildCache",
    "BuildResult",
    "MatmulAlgorithm",
    "default_build_cache",
    "record_lowering",
]

# Process-wide lowering metrics (see DESIGN.md §10).  Counters are
# always-on; the BuildCache pair mirrors its own hits/misses fields so
# traced study cells can attribute cache behaviour per cell.
_CACHE_HITS = counter("build_cache.hits", description="BuildCache lookups served from cache")
_CACHE_MISSES = counter("build_cache.misses", description="BuildCache lookups that had to lower")
_TASKS_LOWERED = counter("lowering.tasks", description="tasks emitted by graph lowerings")
_ARENA_BYTES = gauge("lowering.arena_bytes", unit="B", description="resident bytes of the last columnar arena lowering")


def record_lowering(build: BuildResult) -> BuildResult:
    """Tally a finished lowering into the process metrics.

    Called by every ``build_arena`` implementation and by the cost-only
    object-path fallback, so ``lowering.tasks`` counts every simulated
    lowering regardless of representation (the numerics replay's
    executed lowerings are not counted) and ``lowering.arena_bytes``
    tracks the columnar arenas' resident footprint.
    """
    graph = build.graph
    _TASKS_LOWERED.add(len(graph))
    if isinstance(graph, TaskArena):
        _ARENA_BYTES.set(graph.nbytes)
    return build


@dataclass
class BuildResult:
    """A lowered problem instance.

    Attributes
    ----------
    graph:
        The task graph — an object :class:`TaskGraph` (always, for
        executed builds) or a columnar
        :class:`~repro.runtime.arena.TaskArena` (cost-only builds from
        a templated ``build_arena`` lowering).
    n:
        Problem dimension.
    a, b, c:
        Operands and output when built with ``execute=True``; ``None``
        in cost-only mode (all the simulator needs is the cost
        vectors).
    variant:
        Stability-bound variant for verification ("classical",
        "strassen", "winograd").
    cutoff:
        Recursion cutoff relevant to the stability bound.
    """

    graph: TaskGraph | TaskArena
    n: int
    a: np.ndarray | None
    b: np.ndarray | None
    c: np.ndarray | None
    variant: str = "classical"
    cutoff: int = 64

    @property
    def cost_only(self) -> bool:
        """True when no real numerics are attached."""
        return self.c is None

    def verify(self) -> VerificationReport:
        """Check the computed product against numpy within the stability
        bound.  Only valid after the graph's closures have run (see
        :func:`repro.runtime.replay.replay_numerics`)."""
        if self.cost_only:
            raise ValidationError(
                "cannot verify a cost-only build (execute=False)"
            )
        return verify_matmul(self.a, self.b, self.c, self.variant, self.cutoff)


class BuildCache:
    """Process-wide LRU of cost-only lowerings.

    Lowering is a measured hot path (a Strassen 512² lowering costs
    milliseconds, and the protocol driver re-lowers the *same* cell for
    every repetition), so identical builds are memoized.  The key is
    ``(algorithm instance, n, threads, seed)`` — the instance stands in
    for (machine, algorithm, configuration), which it determines
    completely; entries keep a strong reference to the instance so the
    identity can never be recycled while cached.

    Cached builds carry no compute closures and no operand arrays, and
    scheduling one never mutates it, so the cache returns the *same*
    :class:`BuildResult` to every caller — treat it as immutable.
    Lowerings with numerics bind operand arrays that a replay
    accumulates into, so they are never cached: each numerics check
    lowers its own (:mod:`repro.runtime.replay`).
    """

    def __init__(self, maxsize: int = 64):
        require_positive(maxsize, "maxsize")
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, tuple[object, BuildResult]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        """Hit/miss counters plus current occupancy (diagnostics)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "maxsize": self.maxsize,
        }

    def get_or_build(
        self,
        alg: "MatmulAlgorithm",
        n: int,
        threads: int,
        seed: int = 0,
    ) -> BuildResult:
        """Return the cost-only build for *(alg, n, threads, seed)*,
        lowering it on a miss."""
        key = (id(alg), n, threads, seed)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is alg:
            self._entries.move_to_end(key)
            self.hits += 1
            _CACHE_HITS.add()
            return entry[1]
        self.misses += 1
        _CACHE_MISSES.add()
        with trace.span("lower", alg=alg.name, n=n, threads=threads):
            build = alg._lower_cost_only(n, threads, seed)
        self._entries[key] = (alg, build)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return build


#: Default process-wide cache used by :meth:`MatmulAlgorithm.build_cached`.
_DEFAULT_CACHE = BuildCache()


def default_build_cache() -> BuildCache:
    """The process-wide :class:`BuildCache` (one per worker process)."""
    return _DEFAULT_CACHE


class MatmulAlgorithm(ABC):
    """Base class: builds task graphs for ``C = A @ B`` on a machine."""

    #: short registry name, e.g. "openblas"
    name: str = "abstract"
    #: display name used in tables, e.g. "OpenBLAS"
    display_name: str = "Abstract"

    def __init__(self, machine: MachineSpec):
        self.machine = machine

    @abstractmethod
    def flop_count(self, n: int) -> float:
        """Flops the algorithm performs for an n x n multiply."""

    @abstractmethod
    def build(
        self,
        n: int,
        threads: int,
        seed: int = 0,
        execute: bool = True,
    ) -> BuildResult:
        """Lower an n x n problem to a task graph.

        ``threads`` informs work-sharing chunk counts (OpenMP static
        schedules depend on the team size); ``execute=False`` skips all
        array allocation and numpy closures.  Both modes must emit the
        same tasks in the same order: numerics replay the executed graph
        in the cost-only lowering's schedule (:mod:`repro.runtime.replay`).
        """

    def build_arena(self, n: int, threads: int, seed: int = 0) -> BuildResult | None:
        """Cost-only lowering to a :class:`~repro.runtime.arena.TaskArena`,
        or ``None`` when the algorithm has no columnar path (the cache
        then falls back to ``build(execute=False)``).

        Implementations must produce a graph *bit-identical* (ids,
        names, deps, costs, flags) to
        ``TaskArena.from_graph(build(n, threads, execute=False).graph)``
        — the object recursion stays the differential oracle.
        """
        return None

    def _lower_cost_only(self, n: int, threads: int, seed: int) -> BuildResult:
        """The uncached lowering behind :meth:`build_cached`.  Prefers the
        columnar templated lowering when the algorithm has one: same
        graph bit-for-bit (the differential oracle enforces it), a
        fraction of the build time and memory, and picklable across
        study workers."""
        build = self.build_arena(n, threads, seed=seed)
        if build is None:
            build = record_lowering(self.build(n, threads, seed=seed, execute=False))
        return build

    def build_cached(
        self,
        n: int,
        threads: int,
        seed: int = 0,
        execute: bool | None = None,
        cache: BuildCache | None = None,
    ) -> BuildResult:
        """The cost-only lowering of :meth:`build`, memoized through a
        :class:`BuildCache` (the process-wide default unless *cache* is
        given).  Results are shared — treat them as immutable.

        ``execute`` is deprecated: ``execute=True`` returns a fresh,
        uncached ``build(..., execute=True)``, ``execute=False`` the
        cached lowering.
        """
        if execute is not None:
            warn_deprecated(
                "MatmulAlgorithm.build_cached(execute=...)",
                "build_cached(...) for the cost-only lowering, "
                "build(..., execute=True) for numerics",
            )
            if execute:
                return self.build(n, threads, seed=seed, execute=True)
        if cache is None:
            cache = _DEFAULT_CACHE
        return cache.get_or_build(self, n, threads, seed=seed)

    def check_numerics(
        self,
        n: int,
        threads: int,
        schedule: "Schedule",
        simulated: TaskGraph | TaskArena,
        seed: int = 0,
    ) -> VerificationReport:
        """Lower the executed graph, replay it in the start order of
        *schedule* (made from *simulated*, the cost-only lowering) and
        verify the product (:func:`~repro.runtime.replay.replay_numerics`).
        Raises :class:`ValidationError` when the error exceeds its
        stability bound."""
        report = replay_numerics(
            lambda: self.build(n, threads, seed=seed, execute=True),
            schedule,
            simulated,
            alg=self.name,
            n=n,
            threads=threads,
        )
        if not report.ok:
            raise ValidationError(
                f"{self.display_name} n={n} p={threads}: numerical error "
                f"{report.abs_error:.3e} exceeds bound {report.bound:.3e}"
            )
        return report

    def memory_footprint_bytes(self, n: int) -> float:
        """Resident bytes the algorithm needs (operands + temporaries).

        Subclasses with intermediate buffers override this; the study
        driver uses it to refuse problems that exceed DRAM capacity —
        the paper's "both Strassen-derived approaches require additional
        intermediate result buffers that prevent us from running
        problems larger than 4096x4096" (§VI-A).
        """
        return working_set_bytes(n, matrices=3)

    def check_memory(self, n: int) -> None:
        """Raise when the problem cannot fit in machine memory."""
        need = self.memory_footprint_bytes(n)
        if not self.machine.dram.fits(need):
            raise ConfigurationError(
                f"{self.display_name}: n={n} needs {need / 2**30:.2f} GiB but "
                f"machine has {self.machine.dram.capacity_bytes / 2**30:.2f} GiB"
            )

    def _operands(
        self, n: int, seed: int, execute: bool
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """Allocate (A, B, C) or return Nones in cost-only mode."""
        require_positive(n, "n")
        if not execute:
            return None, None, None
        a = random_matrix(n, seed=seed)
        b = random_matrix(n, seed=seed + 1)
        c = np.zeros((n, n), dtype=np.float64)
        return a, b, c
