"""The paper's execution matrix (§VI-A) as a reusable study driver.

"Our execution matrix includes all three algorithmic approaches using
randomly generated matrices of sizes {512, 1024, 2048, 4096}.  Each
algorithm is executed for each problem size using thread counts
{1, 2, 3, 4}.  This provides us with 48 final result sets."

:class:`EnergyPerformanceStudy` reproduces exactly that: for every
(algorithm, size, threads) triple it builds the task graph, simulates it
on the machine, records the :class:`RunMeasurement`, and optionally
verifies the numerics against numpy.  :class:`StudyResult` then exposes
the derived quantities the evaluation tabulates — slowdowns (Table II /
Fig. 3), average power (Table III / Figs. 4-6) and EP values/scaling
(Table IV / Fig. 7).
"""

from __future__ import annotations

import contextlib
import copy
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from ..algorithms.base import MatmulAlgorithm
from ..algorithms.registry import paper_algorithms
from ..machine.specs import MachineSpec
from ..observability import trace
from ..observability.metrics import counter
from ..observability.metrics import registry as metrics_registry
from ..power.msr import deposit_planes
from ..power.planes import Plane
from ..sim.engine import Engine
from ..sim.measurement import RunMeasurement
from ..util.errors import ConfigurationError, StudyCellError, ValidationError
from ..util.validation import require_nonempty, require_positive
from .ep import EPConvention, EPMeasurement
from .resultstore import ResultStore, cell_record
from .scaling import ScalingPoint, scaling_series

__all__ = [
    "StudyConfig",
    "StudyResult",
    "EnergyPerformanceStudy",
    "PAPER_SIZES",
    "PAPER_THREADS",
]

_CELLS_RESUMED = counter(
    "study.cells_resumed",
    description="study cells served from the run's result store instead "
    "of simulated",
)
_WORKER_FAILURES = counter(
    "study.worker_failures",
    description="pool-side cell computations that failed and were retried "
    "in-process",
)
_CELLS_RECOMPUTED = counter(
    "study.cells_recomputed",
    description="cells recomputed in-process after a worker failure",
)

#: The paper's problem sizes and thread counts.
PAPER_SIZES: tuple[int, ...] = (512, 1024, 2048, 4096)
PAPER_THREADS: tuple[int, ...] = (1, 2, 3, 4)


@dataclass(frozen=True)
class StudyConfig:
    """Knobs of one study run.

    Attributes
    ----------
    sizes / threads:
        The execution matrix (defaults: the paper's).
    seed:
        Operand RNG seed (same operands for every algorithm).
    execute_max_n:
        Sizes up to this bound check their numerics: the cell stamps
        its numerics program, runs it in the simulated schedule's start
        order and verifies the product
        (:meth:`repro.algorithms.base.MatmulAlgorithm.check_numerics`).
        Every cell
        simulates the same cost-only lowering, so the timings and
        energies are identical either way.
    verify:
        Check numerics at all; ``False`` makes every cell cost-only.
    baseline:
        Algorithm name the slowdown tables normalise against.
    plane / convention:
        EP definition (paper: PACKAGE plane, power convention).
    """

    sizes: tuple[int, ...] = PAPER_SIZES
    threads: tuple[int, ...] = PAPER_THREADS
    seed: int = 2015
    execute_max_n: int = 1024
    verify: bool = True
    baseline: str = "openblas"
    plane: Plane = Plane.PACKAGE
    convention: EPConvention = "power"

    def __post_init__(self) -> None:
        require_nonempty(self.sizes, "sizes")
        require_nonempty(self.threads, "threads")
        for n in self.sizes:
            require_positive(n, "size")
        for p in self.threads:
            require_positive(p, "threads")


@dataclass
class StudyResult:
    """All measurements of one study plus the paper's derived metrics."""

    machine: MachineSpec
    config: StudyConfig
    algorithm_names: list[str]
    display_names: dict[str, str]
    runs: dict[tuple[str, int, int], RunMeasurement] = field(default_factory=dict)

    # ---- raw accessors -------------------------------------------------

    def measurement(self, alg: str, n: int, threads: int) -> RunMeasurement:
        key = (alg, n, threads)
        if key not in self.runs:
            raise ValidationError(f"no run recorded for {key}")
        return self.runs[key]

    def time_s(self, alg: str, n: int, threads: int) -> float:
        return self.measurement(alg, n, threads).elapsed_s

    def power_w(
        self, alg: str, n: int, threads: int, plane: Plane | None = None
    ) -> float:
        """Average watts on *plane* (default: the study's plane, the
        paper's PACKAGE; pass ``Plane.PP0`` for the cores-only plane the
        paper also records).

        Naming convention (normalized across the repo): accessors that
        return watts carry a ``_w`` suffix — ``power_w`` /
        ``avg_power_w`` / ``peak_power_w`` / ``min_power_w`` here, and
        ``RunMeasurement.avg_power_w`` / ``peak_power_w`` per run.
        """
        return self.measurement(alg, n, threads).avg_power_w(
            plane or self.config.plane
        )

    def pp0_fraction(self, alg: str, n: int, threads: int) -> float:
        """Share of package power drawn by the cores (PP0/PACKAGE) —
        high for compute-dense kernels, lower for bandwidth-bound ones
        whose uncore does the work."""
        meas = self.measurement(alg, n, threads)
        return meas.avg_power_w(Plane.PP0) / meas.avg_power_w(Plane.PACKAGE)

    def ep(self, alg: str, n: int, threads: int) -> float:
        """Eq. 1 under the study's convention."""
        return EPMeasurement(
            self.measurement(alg, n, threads),
            self.config.plane,
            self.config.convention,
        ).ep

    # ---- Table II / Fig. 3: slowdown ------------------------------------

    def slowdown(self, alg: str, n: int, threads: int) -> float:
        """T_alg / T_baseline at the same (n, threads)."""
        base = self.time_s(self.config.baseline, n, threads)
        return self.time_s(alg, n, threads) / base

    def avg_slowdown_by_size(self, alg: str) -> dict[int, float]:
        """Table II rows: mean over thread counts, per size."""
        return {
            n: sum(self.slowdown(alg, n, p) for p in self.config.threads)
            / len(self.config.threads)
            for n in self.config.sizes
        }

    def avg_slowdown(self, alg: str) -> float:
        """Table II 'Average' column: mean over all sizes and threads."""
        by_size = self.avg_slowdown_by_size(alg)
        return sum(by_size.values()) / len(by_size)

    # ---- Table III / Figs. 4-6: power ------------------------------------

    def avg_power_by_threads(self, alg: str) -> dict[int, float]:
        """Table III rows: mean watts over sizes, per thread count."""
        return {
            p: sum(self.power_w(alg, n, p) for n in self.config.sizes)
            / len(self.config.sizes)
            for p in self.config.threads
        }

    def avg_power_w(self, alg: str) -> float:
        """Table III 'Average' column (watts; canonical ``_w`` name)."""
        by_threads = self.avg_power_by_threads(alg)
        return sum(by_threads.values()) / len(by_threads)

    def power_curve(self, alg: str, n: int) -> list[tuple[int, float]]:
        """Figs. 4-6: watts vs threads for one size."""
        return [(p, self.power_w(alg, n, p)) for p in self.config.threads]

    def peak_power_w(self, alg: str) -> float:
        """Highest instantaneous watts over the whole matrix."""
        return max(
            self.measurement(alg, n, p).peak_power_w(self.config.plane)
            for n in self.config.sizes
            for p in self.config.threads
        )

    def min_power_w(self, alg: str) -> float:
        """Lowest per-run average watts over the matrix."""
        return min(
            self.power_w(alg, n, p)
            for n in self.config.sizes
            for p in self.config.threads
        )

    # ---- Table IV / Fig. 7: energy performance ----------------------------

    def avg_ep_by_size(self, alg: str) -> dict[int, float]:
        """Table IV rows: mean EP over threads, per size."""
        return {
            n: sum(self.ep(alg, n, p) for p in self.config.threads)
            / len(self.config.threads)
            for n in self.config.sizes
        }

    def avg_ep(self, alg: str) -> float:
        """Table IV 'Average' column."""
        by_size = self.avg_ep_by_size(alg)
        return sum(by_size.values()) / len(by_size)

    def scaling_curve(self, alg: str, n: int) -> list[ScalingPoint]:
        """Fig. 7: Eq. 5's S over the thread sweep for one size."""
        threads = sorted(self.config.threads)
        if threads[0] != 1:
            raise ValidationError("scaling curves need a 1-thread baseline run")
        eps = [self.ep(alg, n, p) for p in threads]
        return scaling_series(eps, threads)

    def speedup(self, alg: str, n: int, threads: int) -> float:
        """Conventional speedup T_1 / T_p (same algorithm)."""
        return self.time_s(alg, n, 1) / self.time_s(alg, n, threads)


class EnergyPerformanceStudy:
    """Runs the execution matrix and assembles a :class:`StudyResult`."""

    def __init__(
        self,
        machine: MachineSpec,
        algorithms: Sequence[MatmulAlgorithm] | None = None,
        config: StudyConfig = StudyConfig(),
        *,
        _engine: Engine | None = None,
    ):
        self.machine = machine
        self.algorithms = list(algorithms) if algorithms is not None else paper_algorithms(machine)
        if not self.algorithms:
            raise ConfigurationError("study needs at least one algorithm")
        names = [a.name for a in self.algorithms]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate algorithm names: {names}")
        if config.baseline not in names:
            raise ConfigurationError(
                f"baseline {config.baseline!r} is not among {names}"
            )
        self.config = config
        self.engine = _engine or Engine(machine)

    def run(self) -> StudyResult:
        """Execute the full matrix serially, in the paper's table order.

        :meth:`repro.api.Study.run` is the entry point with per-run
        options (process fan-out, store, tracing)."""
        return self._run()

    def _run(
        self,
        parallel: int | None = None,
        *,
        store: "ResultStore | str | Path | None" = None,
    ) -> StudyResult:
        """Internal entry point (used by :mod:`repro.api`): one sweep,
        whatever the options (DESIGN §7.3).

        Key the cells and serve the store hits (*store*, a
        :class:`ResultStore` or its directory, checkpoints the sweep);
        compute the misses through :func:`_run_cells` — in-process, or
        over a pool of up to *parallel* workers when ``parallel > 1`` —
        and ``put`` each as it is collected, so a rerun of an
        interrupted sweep resumes it; then merge in the serial (table)
        order.  Results are identical either way, and so is the study
        engine's MSR counter stream: cells run on an MSR-less engine,
        and the merge deposits every cell's plane energies in serial
        order.  The matrix runs under a ``study.run`` span, each cell
        under a ``cell`` span.
        """
        result = StudyResult(
            machine=self.machine,
            config=self.config,
            algorithm_names=[a.name for a in self.algorithms],
            display_names={a.name: a.display_name for a in self.algorithms},
        )
        cells = self._cells()
        records: dict[tuple[str, int, int], tuple[str, dict]] = {}
        if store is not None:
            # Key first: an engine or algorithm no key can describe is
            # refused before the store directory is even created.
            records = self._cell_records(cells)
            if not isinstance(store, ResultStore):
                store = ResultStore(store)
        with trace.span(
            "study.run",
            sizes=list(self.config.sizes),
            threads=list(self.config.threads),
            algorithms=[a.name for a in self.algorithms],
            cells=len(cells),
            parallel=int(parallel or 0),
        ):
            hits: dict[tuple[str, int, int], RunMeasurement] = {}
            for coords, (key, _) in records.items():
                measurement = store.get(key)  # a corrupt entry is a miss
                if measurement is not None:
                    hits[coords] = measurement
            misses = [
                (alg, n, p) for alg, n, p in cells if (alg.name, n, p) not in hits
            ]
            engine = self._cell_engine()
            payloads = [self._payload(engine, alg, n, p) for alg, n, p in misses]
            outcomes: dict[tuple[str, int, int], tuple] = {}
            with _pool(min(parallel or 0, len(misses))) as pool:
                computed = _run_cells(payloads, pool, traced=trace.enabled())
                for (alg, n, p), outcome in zip(misses, computed):
                    coords = (alg.name, n, p)
                    outcomes[coords] = outcome
                    if store is not None:
                        key, meta = records[coords]
                        store.put(key, outcome[0], meta=meta)
            msr = getattr(self.engine, "msr", None)
            with trace.span("merge", cells=len(cells)):
                for alg, n, p in cells:
                    coords = (alg.name, n, p)
                    if coords in hits:
                        measurement = hits[coords]
                        _CELLS_RESUMED.add()
                    else:
                        measurement, _, metric_delta, _ = outcomes[coords]
                        if metric_delta:
                            metrics_registry().absorb(metric_delta)
                    result.runs[coords] = measurement
                    if msr is not None:
                        deposit_planes(msr, measurement.energy)
            # Pool cells' spans go in after the merge span closes, in
            # serial order, so they sit at depth 1 under study.run as
            # in-process cells do.
            tracer = trace.active()
            if tracer is not None:
                for _, spans, _, _ in outcomes.values():
                    if spans:
                        tracer.attach(spans)
        return result

    def _cells(self) -> list[tuple[MatmulAlgorithm, int, int]]:
        """The matrix in serial (table) order."""
        return [
            (alg, n, p)
            for alg in self.algorithms
            for n in self.config.sizes
            for p in self.config.threads
        ]

    def _cell_records(
        self, cells: list[tuple[MatmulAlgorithm, int, int]]
    ) -> dict[tuple[str, int, int], tuple[str, dict]]:
        """Every cell's store key and entry ``meta``
        (:func:`~repro.core.resultstore.cell_record`).  Raises
        :class:`ConfigurationError` when the engine or an algorithm
        cannot be keyed."""
        fingerprints: dict[str, str] = {}
        cfg = self.config
        return {
            (alg.name, n, p): cell_record(
                self.engine, alg, n, p, seed=cfg.seed,
                execute=n <= cfg.execute_max_n, verified=self._verified(n),
                fingerprints=fingerprints,
            )
            for alg, n, p in cells
        }

    def _verified(self, n: int) -> bool:
        """Whether the cell at size *n* checks its numerics."""
        return self.config.verify and n <= self.config.execute_max_n

    def _cell_engine(self) -> Engine:
        """The engine cells run on: the study's own, or an MSR-less copy
        when it has an MSR (the merge deposits into that MSR).  A
        duck-typed wrapper such as :class:`~repro.sim.noise.NoisyEngine`
        has none, so its RNG advances in-process, in serial order."""
        if getattr(self.engine, "msr", None) is None:
            return self.engine
        engine = copy.copy(self.engine)
        engine.msr = None
        return engine

    def _payload(
        self, engine: Engine, alg: MatmulAlgorithm, n: int, threads: int
    ) -> tuple:
        """Everything :func:`_run_cell` needs for one cell — no lowered
        graph: the cell is lowered where it runs, because re-lowering a
        cell costs milliseconds while shipping its arena costs
        megabytes (DESIGN §7.3)."""
        return (engine, alg, n, threads, self.config.seed, self._verified(n))


def _run_cell(payload) -> RunMeasurement:
    """Build, simulate and (optionally) check the numerics of one cell.

    Every cell simulates its cost-only lowering.  A *verified* cell then
    runs its stamped numerics program in the simulated schedule's start
    order before verifying the product
    (:meth:`~repro.algorithms.base.MatmulAlgorithm.check_numerics`); the
    measurement never depends on it.

    Module-level so :func:`_run_cells` can send it to worker processes
    as well as call it in-process.

    When tracing is active (in-process: the caller's tracer; in a pool:
    the worker-local tracer installed by :func:`_run_cell_worker`), the
    whole cell runs under a ``cell`` span whose attributes carry the
    cell coordinates and the per-cell metric deltas (cache hits/misses,
    tasks lowered, kernel sweeps, ...); the span itself records the
    cell's wall and CPU time.
    """
    engine, alg, n, threads, seed, verified = payload
    with trace.span("cell", alg=alg.name, n=n, threads=threads) as cell_span:
        snap = metrics_registry().snapshot() if trace.enabled() else None
        with trace.span("build", alg=alg.name, n=n, threads=threads):
            build = alg.build_cached(n, threads, seed=seed)
        with trace.span("simulate", alg=alg.name, n=n, threads=threads):
            measurement, schedule = engine.simulate(
                build.graph, threads, label=f"{alg.name}[n={n},p={threads}]"
            )
        if verified:
            alg.check_numerics(n, threads, schedule, build.graph, seed=seed)
        if snap is not None:
            cell_span.set(
                sim_elapsed_s=measurement.elapsed_s,
                metrics=metrics_registry().delta_since(snap),
            )
    return measurement


def _run_cell_worker(payload, traced: bool):
    """Worker-pool wrapper around :func:`_run_cell`.

    Returns ``(measurement, spans, metric_delta)``: when the parent is
    tracing, the cell runs under a fresh worker-local tracer (never the
    tracer a ``fork`` start method may have copied in) and ships the
    exported spans and typed metric deltas back for the deterministic
    parent-side merge; otherwise both extras are ``None``.
    """
    if not traced:
        return _run_cell(payload), None, None
    reg = metrics_registry()
    snap = reg.snapshot()
    with trace.tracing() as tracer:
        measurement = _run_cell(payload)
    return measurement, tracer.export(), reg.export_delta(snap)


def _pool(workers: int):
    """A process pool of *workers*, or a null context (no pool) for
    fewer than two."""
    if workers < 2:
        return contextlib.nullcontext()
    # Looked up per call, so a test can substitute an in-process pool.
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _submit(pool, payload: tuple, traced: bool) -> "Future":
    """Submit one cell to *pool*; a submit that raises (a worker died
    after an earlier submit and broke the pool) becomes a failed future,
    so the fault policy sees it like any other worker failure."""
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool

    try:
        return pool.submit(_run_cell_worker, payload, traced)
    except BrokenProcessPool as exc:
        failed: Future = Future()
        failed.set_exception(exc)
        return failed


def _run_cells(
    payloads: list[tuple], pool=None, *, traced: bool = False
) -> Iterator[tuple]:
    """Compute cells; yield ``(measurement, spans, metric_delta,
    recomputed)`` for each of *payloads*, in order.

    The one cell driver of the study and the service.  Without a *pool*
    every cell runs in-process (:func:`_run_cell`; spans and metrics
    land in the caller's tracer and registry, so both extras are
    ``None``).  With one, all cells are submitted up front and collected
    in submission order: *traced* asks workers for their spans and
    metric deltas (:func:`_run_cell_worker`).

    Fault policy: a failed future — the cell raised in the pool, its
    worker died, or the submit hit a broken pool — ticks
    ``study.worker_failures`` and the cell is recomputed in-process
    (``study.cells_recomputed``, ``recomputed=True``): the same code, so
    the same bits.  Only an exception from that in-process run escapes,
    as a :class:`StudyCellError` naming the cell.
    """
    if pool is None:
        for payload in payloads:
            yield _run_cell(payload), None, None, False
        return
    futures = [_submit(pool, payload, traced) for payload in payloads]
    for payload, future in zip(payloads, futures):
        try:
            measurement, spans, metric_delta = future.result()
        except Exception:
            _WORKER_FAILURES.add()
        else:
            yield measurement, spans, metric_delta, False
            continue
        _CELLS_RECOMPUTED.add()
        try:
            measurement = _run_cell(payload)
        except Exception as exc:
            _, alg, n, threads, _, _ = payload
            raise StudyCellError(alg.name, n, threads, exc) from exc
        yield measurement, None, None, True
