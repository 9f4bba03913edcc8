"""Common interface of the three matrix-multiplication algorithms.

Each algorithm (§IV: OpenBLAS-style blocked, Strassen-Winograd, CAPS)
*lowers* a problem instance to a columnar
:class:`~repro.runtime.arena.TaskArena` whose tasks carry the
analytical cost vectors that drive the simulator.  The same template
recursion also stamps a numerics program
(:mod:`repro.algorithms.program`) that performs the real arithmetic,
so results can be verified against ``numpy.matmul``.
"""

from __future__ import annotations

import hashlib
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..linalg.dense import working_set_bytes
from ..linalg.verify import (
    NumericsInputs,
    ProblemInputs,
    VerificationReport,
    problem_operands,
    verify_matmul,
)
from ..machine.specs import MachineSpec
from ..observability import trace
from ..observability.metrics import counter, gauge
from ..runtime.arena import TaskArena
from ..runtime.replay import check_order, depth_first_order
from ..util.errors import ConfigurationError, SchedulingError, ValidationError
from ..util.validation import require_positive
from .program import planned_nbytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.scheduler import Schedule
    from .program import NumericsProgram

__all__ = [
    "BuildCache",
    "BuildResult",
    "MatmulAlgorithm",
    "ReportMemo",
    "default_build_cache",
    "numerics_digest",
    "numerics_memo",
    "record_lowering",
]

# Process-wide lowering metrics (see DESIGN.md §10).  Counters are
# always-on; the BuildCache pair mirrors its own hits/misses fields so
# traced study cells can attribute cache behaviour per cell.
_CACHE_HITS = counter("build_cache.hits", description="BuildCache lookups served from cache")
_CACHE_MISSES = counter("build_cache.misses", description="BuildCache lookups that had to lower")
_TASKS_LOWERED = counter("lowering.tasks", description="tasks emitted by graph lowerings")
_ARENA_BYTES = gauge("lowering.arena_bytes", unit="B", description="resident bytes of the last columnar arena lowering")
_MEMO_HITS = counter("numerics.memo_hits", description="numerics checks answered by a memoized verification report")
_MEMO_MISSES = counter("numerics.memo_misses", description="numerics checks that ran their program and verified it")


def record_lowering(build: BuildResult) -> BuildResult:
    """Tally a finished lowering into the process metrics.

    Called by every ``build_arena`` implementation, so
    ``lowering.tasks`` counts every simulated lowering (numerics
    programs are not counted) and ``lowering.arena_bytes`` tracks the
    columnar arenas' resident footprint.
    """
    _TASKS_LOWERED.add(len(build.graph))
    _ARENA_BYTES.set(build.graph.nbytes)
    return build


@dataclass
class BuildResult:
    """A lowered problem instance.

    Attributes
    ----------
    graph:
        The task graph, a columnar
        :class:`~repro.runtime.arena.TaskArena` from ``build_arena``.
    n:
        Problem dimension.
    a, b, c:
        Operands and computed product after a numerics run
        (:meth:`MatmulAlgorithm.compute_product`); ``None`` for a
        cost-only lowering (all the simulator needs is the cost
        vectors).
    variant:
        Stability-bound variant for verification ("classical",
        "strassen", "winograd").
    cutoff:
        Recursion cutoff relevant to the stability bound.
    inputs:
        The :class:`~repro.linalg.verify.ProblemInputs` *a* and *b*
        came from when a run shares them with other cells (its
        reference product then serves :meth:`verify`); ``None`` for
        operands drawn for this build alone.
    """

    graph: TaskArena
    n: int
    a: np.ndarray | None
    b: np.ndarray | None
    c: np.ndarray | None
    variant: str = "classical"
    cutoff: int = 64
    inputs: ProblemInputs | None = None

    @property
    def cost_only(self) -> bool:
        """True when no real numerics are attached."""
        return self.c is None

    def verify(self) -> VerificationReport:
        """Check the computed product against numpy within the stability
        bound.  Only valid after the numerics have run (see
        :meth:`MatmulAlgorithm.compute_product`)."""
        if self.cost_only:
            raise ValidationError("cannot verify a cost-only build")
        if self.inputs is not None:
            return self.inputs.verify(self.c, self.variant, self.cutoff)
        return verify_matmul(self.a, self.b, self.c, self.variant, self.cutoff)


class BuildCache:
    """Process-wide LRU of cost-only lowerings.

    Lowering is a measured hot path (a Strassen 512² lowering costs
    milliseconds, and the protocol driver re-lowers the *same* cell for
    every repetition), so identical builds are memoized.  The key is
    ``(algorithm instance, n, threads)`` — the instance stands in for
    (machine, algorithm, configuration), which it determines
    completely; entries keep a strong reference to the instance so the
    identity can never be recycled while cached.  A lowering carries no
    operands, so no seed enters the key: cells that differ only in
    their seed share one build.

    Cached builds carry no operand arrays, and scheduling one never
    mutates it, so the cache returns the *same* :class:`BuildResult` to
    every caller — treat it as immutable.  Numerics never go through
    the cache: every :meth:`MatmulAlgorithm.compute_product` stamps and
    runs its own program on fresh operands.  Numerics state kept across
    cells is the process-wide :class:`ReportMemo` of verification
    reports — two floats per entry, no arrays — and, within one run
    only, the :class:`~repro.linalg.verify.NumericsInputs` scope its
    verified cells share: each ``(n, seed)``'s operands and reference
    product, released after the last cell that uses them.
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
    ) -> BuildResult:
        """Return the cost-only build for *(alg, n, threads)*, lowering
        it on a miss."""
        key = (id(alg), n, threads)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is alg:
            self._entries.move_to_end(key)
            self.hits += 1
            _CACHE_HITS.add()
            return entry[1]
        self.misses += 1
        _CACHE_MISSES.add()
        with trace.span("lower", alg=alg.name, n=n, threads=threads):
            build = alg.build_arena(n, threads)
        self._entries[key] = (alg, build)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return build


#: Default process-wide cache used by :meth:`MatmulAlgorithm.build_cached`.
_DEFAULT_CACHE = BuildCache()


def default_build_cache() -> BuildCache:
    """The process-wide :class:`BuildCache` (one per worker process)."""
    return _DEFAULT_CACHE


def numerics_digest(program: "NumericsProgram", arena: TaskArena) -> str:
    """sha256 over what a numerics run's product depends on besides its
    operands: the stamped *program* (op kinds, view pointers, views,
    temporaries' shapes, padded size, cutoff, stability variant) and
    *arena*'s dependency CSR."""
    h = hashlib.sha256(repr((program.m, program.cutoff, program.variant)).encode())
    for arr in (
        program.kinds, program.ptr, program.views, program.shapes,
        arena.dep_counts, arena.dep_indices,
    ):
        arr = np.ascontiguousarray(arr)
        h.update(repr((arr.dtype.str, arr.shape)).encode())
        h.update(arr.data)
    return h.hexdigest()


class ReportMemo:
    """Process-wide LRU of verification reports, keyed by
    ``(n, seed, numerics_digest(program, arena))``.

    Once the DAG is race-free, the product is a function of the program,
    the DAG and the operands (seeded by ``(n, seed)``), not of the linear
    extension it ran in; the ``numerics_program`` oracle checks this
    in two orders and across the thread counts that share a key (see
    DESIGN.md §7.5).  Cells sharing a key — Strassen and CAPS at every
    thread count, OpenBLAS at two and four threads — therefore verify
    the same product, and all but the first reuse its report.  Entries
    are ``(abs_error, bound)`` float pairs: the memo keeps no operands
    or products (a run's misses share those through its
    :class:`~repro.linalg.verify.NumericsInputs`, which frees them
    after their last cell).  Lookups and inserts hold one lock, so
    threads calling :meth:`MatmulAlgorithm.check_numerics` (the
    service runs cells through ``asyncio.to_thread``) see a consistent
    LRU.
    """

    #: Entries kept; the paper's 24 verified cells have 10 distinct keys.
    MAXSIZE = 64

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[float, float]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()

    def entries(self) -> list[tuple[tuple, tuple[float, float]]]:
        """A snapshot of ``(key, (abs_error, bound))``, oldest first."""
        with self._lock:
            return list(self._entries.items())

    def lookup(self, key: tuple) -> VerificationReport | None:
        """The memoized report for *key*, or ``None``; ticks
        ``numerics.memo_hits`` / ``numerics.memo_misses``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                _MEMO_MISSES.add()
                return None
            self._entries.move_to_end(key)
            _MEMO_HITS.add()
        return VerificationReport(*entry)

    def store(self, key: tuple, report: VerificationReport) -> None:
        """Memoize *report*'s error and bound under *key*."""
        with self._lock:
            self._entries[key] = (float(report.abs_error), float(report.bound))
            self._entries.move_to_end(key)
            if len(self._entries) > self.MAXSIZE:
                self._entries.popitem(last=False)


_REPORT_MEMO = ReportMemo()


def numerics_memo() -> ReportMemo:
    """The process-wide :class:`ReportMemo` (one per worker process)."""
    return _REPORT_MEMO


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
    def build_arena(self, n: int, threads: int) -> BuildResult:
        """Lower an n x n problem to a cost-only
        :class:`~repro.runtime.arena.TaskArena`.

        ``threads`` informs work-sharing chunk counts (OpenMP static
        schedules depend on the team size).  The object lowering in
        :mod:`repro.testing.lowering` is the differential oracle the
        arena must match bit for bit.
        """

    def numerics_program(self, n: int, threads: int) -> "NumericsProgram":
        """The numerics of :meth:`build_arena`'s lowering, one op per
        task id (:mod:`repro.algorithms.program`).  Raises
        :class:`ValidationError` for an algorithm whose lowering is
        cost-only."""
        raise ValidationError(
            f"{self.display_name} has no numerics program: its lowering "
            f"is cost-only"
        )

    def build_cached(
        self,
        n: int,
        threads: int,
        cache: BuildCache | None = None,
    ) -> BuildResult:
        """:meth:`build_arena`, memoized through a :class:`BuildCache`
        (the process-wide default unless *cache* is given).  Results are
        shared — treat them as immutable."""
        if cache is None:
            cache = _DEFAULT_CACHE
        return cache.get_or_build(self, n, threads)

    def compute_product(
        self,
        n: int,
        threads: int,
        order,
        simulated: TaskArena | None = None,
        seed: int = 0,
    ) -> BuildResult:
        """Run the numerics of the ``(n, threads)`` lowering in *order*.

        *order* must be a linear extension of *simulated* (default: the
        cached lowering), checked before anything runs
        (:func:`~repro.runtime.replay.check_order`).  The program is
        stamped from the templates *simulated* was stamped from, so it
        matches it task for task.  Returns a :class:`BuildResult` over
        *simulated* carrying the operands and the product.  Never
        memoized: every call computes a fresh C.
        """
        if simulated is None:
            simulated = self.build_cached(n, threads).graph
        program = self._checked_program(n, threads, order, simulated)
        return self._run_program(program, simulated, order, seed)

    def _checked_program(
        self, n: int, threads: int, order, arena: TaskArena
    ) -> "NumericsProgram":
        """Stamp the ``(n, threads)`` program and require it to match
        *arena* task for task and *order* to be a linear extension of
        *arena*."""
        program = self.numerics_program(n, threads)
        if len(program) != len(arena):
            raise SchedulingError(
                f"{self.name}[n={n}] numerics program has {len(program)} "
                f"tasks but the simulated graph has {len(arena)}"
            )
        check_order(arena, order)
        return program

    def _run_program(
        self, program: "NumericsProgram", simulated, order, seed: int,
        span=trace.NULL_SPAN, inputs: ProblemInputs | None = None,
    ) -> BuildResult:
        """Run checked *program* in *order* on the seeded operands —
        *inputs*' when given, else drawn for this run — its temporaries
        in storage planned for *order*; *span* gets the planned and
        unplanned temporary MiB (``temp_mb``, ``temp_mb_unplanned``)."""
        n = program.n
        a, b = self.operands(n, seed) if inputs is None else (inputs.a, inputs.b)
        bufs = program.allocate(a, b, order)
        span.set(
            temp_mb=planned_nbytes(bufs) / 2**20,
            temp_mb_unplanned=program.temp_nbytes / 2**20,
        )
        program.run(bufs, order)
        c = bufs[2][:n, :n]
        return BuildResult(
            simulated, n, a, b, c, program.variant, program.cutoff, inputs
        )

    def check_numerics(
        self,
        n: int,
        threads: int,
        schedule: "Schedule",
        simulated: TaskArena,
        seed: int = 0,
        inputs: NumericsInputs | None = None,
    ) -> VerificationReport:
        """Check the numerics of *schedule* (made from *simulated*, the
        cost-only lowering) and return the verification report.

        Under a ``numerics`` span the cell stamps its program, requires
        it to match *simulated* task for task and the schedule's start
        order to be a linear extension of *simulated* — on every call.
        It then looks the report up in the :class:`ReportMemo` by
        ``(n, seed, numerics_digest(program, arena))`` (span attribute
        ``memo="hit"|"miss"``).  On a miss it runs the program in the
        arena's canonical depth-first order
        (:func:`~repro.runtime.replay.depth_first_order`), its
        temporaries in storage planned for that order (span attributes
        ``temp_mb`` and ``temp_mb_unplanned``), and verifies the product
        under a ``verify`` span.  A miss takes its operands, reference
        product and operand norms from the run's *inputs* scope
        (:class:`~repro.linalg.verify.NumericsInputs`, shared with the
        run's other cells of ``(n, seed)``; span attribute
        ``inputs="shared"``), or without one draws them for this check
        alone (``inputs="drawn"``); the report is the same bits either
        way.  The start order is what the cell proves; the order a miss
        runs in only sets its memory, since a race-free DAG computes the
        same C in every linear extension (the ``numerics_program``
        oracle checks both orders), and the depth-first one keeps the
        temporaries of one recursion branch at a time live.
        Raises :class:`ValidationError` when the error exceeds its
        stability bound, on a hit as on a miss."""
        attrs = {"alg": self.name, "n": n, "threads": threads}
        with trace.span("numerics", **attrs) as span:
            program = self._checked_program(
                n, threads, schedule.start_order(), simulated
            )
            key = (n, seed, numerics_digest(program, simulated))
            report = _REPORT_MEMO.lookup(key)
            span.set(memo="miss" if report is None else "hit")
            if report is None:
                span.set(inputs="drawn" if inputs is None else "shared")
                product = self._run_program(
                    program, simulated, depth_first_order(simulated), seed,
                    span, None if inputs is None else inputs.get(n, seed),
                )
        if report is None:
            with trace.span("verify", **attrs):
                report = product.verify()
            _REPORT_MEMO.store(key, report)
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

    #: The seeded ``(A, B)`` operands of an n x n problem
    #: (:func:`~repro.linalg.verify.problem_operands`).
    operands = staticmethod(problem_operands)
