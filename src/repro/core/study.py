"""The paper's execution matrix (§VI-A) as a reusable study driver.

"Our execution matrix includes all three algorithmic approaches using
randomly generated matrices of sizes {512, 1024, 2048, 4096}.  Each
algorithm is executed for each problem size using thread counts
{1, 2, 3, 4}.  This provides us with 48 final result sets."

:class:`Study` reproduces exactly that: for every (algorithm, size,
threads) triple it builds the task graph, simulates it on the machine,
records the :class:`RunMeasurement`, and optionally verifies the
numerics against numpy.  Construction is configuration (machine,
algorithms, :class:`StudyConfig`); :meth:`Study.run` takes the per-run
policy (:class:`RunOptions`: event kernel, process fan-out, tracing,
store) and returns a :class:`StudyRun`.  :class:`StudyResult` then
exposes the derived quantities the evaluation tabulates — slowdowns
(Table II / Fig. 3), average power (Table III / Figs. 4-6) and EP
values/scaling (Table IV / Fig. 7).
"""

from __future__ import annotations

import contextlib
import copy
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from ..algorithms.base import MatmulAlgorithm
from ..algorithms.registry import paper_algorithms
from ..linalg.verify import NumericsInputs
from ..machine.specs import MachineSpec, haswell_e3_1225
from ..observability import trace
from ..observability.export import metrics_table, phase_table, write_trace_json
from ..observability.metrics import counter
from ..observability.metrics import registry as metrics_registry
from ..observability.trace import Tracer
from ..power.msr import deposit_planes
from ..power.planes import Plane
from ..runtime.scheduler import ENGINES
from ..sim.engine import Engine
from ..sim.measurement import RunMeasurement
from ..util.errors import ConfigurationError, StudyCellError, ValidationError
from ..util.tables import TextTable
from ..util.validation import require_nonempty, require_positive
from .ep import EPConvention, EPMeasurement
from .resultstore import ResultStore, cell_record
from .scaling import ScalingPoint, scaling_series

if TYPE_CHECKING:
    from ..service.cells import StudyRequest
    from ..service.service import ServiceConfig, StudyService

__all__ = [
    "PAPER_SIZES",
    "PAPER_THREADS",
    "RunOptions",
    "Study",
    "StudyConfig",
    "StudyResult",
    "StudyRun",
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


@dataclass(frozen=True)
class RunOptions:
    """Per-run execution policy of :meth:`Study.run`.

    Attributes
    ----------
    engine:
        ``None`` (the default) lets the platform pick the event kernel
        (:func:`repro.runtime.scheduler.default_engine`): ``"compiled"``
        when a C toolchain is present, else ``"fast"`` with a one-time
        warning — the numbers are bit-identical either way.  Naming
        ``"compiled"`` (strict: no toolchain is a
        :class:`ConfigurationError`), ``"fast"`` or ``"reference"``
        (the scalar differential oracle) pins that kernel; see
        :func:`repro.api.available_engines`.  An
        :class:`~repro.sim.engine.Engine` instance is also accepted
        when the caller needs a custom one (emulated MSR, noise
        wrapper, ...).
    parallel:
        ``None``/``0``/``1`` runs cells serially; ``N > 1`` fans the
        independent cells across a process pool.  Results are
        bit-identical either way (see :meth:`Study.run`).
    trace:
        ``False`` (default) leaves tracing disabled — the zero-overhead
        path.  ``True`` records spans and returns them on the
        :class:`StudyRun`; a path string/``Path`` additionally writes
        the Chrome ``trace_event`` JSON there.
    store:
        A :class:`~repro.core.resultstore.ResultStore` or its directory
        (created if missing) that checkpoints the run: stored cells are
        served (MSR deposits included), the rest are simulated and
        stored, so rerunning an interrupted sweep resumes it
        bit-identically.  The cell key covers everything that changes a
        number (see DESIGN.md §11); needs a plain
        :class:`~repro.sim.engine.Engine`.
    """

    engine: "str | Engine | None" = None
    parallel: int | None = None
    trace: "bool | str | Path" = False
    store: "ResultStore | str | Path | None" = None

    def __post_init__(self) -> None:
        if isinstance(self.engine, str) and self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES} or an Engine instance, "
                f"got {self.engine!r}"
            )
        if self.parallel is not None and self.parallel < 0:
            raise ConfigurationError(
                f"parallel must be >= 0, got {self.parallel}"
            )


@dataclass
class StudyRun:
    """What one :meth:`Study.run` produced.

    ``result`` is always present; ``tracer`` and ``metrics`` are
    populated only when the run was traced (``RunOptions.trace``).
    """

    result: StudyResult
    tracer: Tracer | None = None
    metrics: dict | None = None
    trace_path: Path | None = None
    options: RunOptions | None = None

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    @property
    def wall_s(self) -> float:
        """Wall seconds of the root ``study.run`` span (0.0 untraced)."""
        if self.tracer is not None:
            for sp in self.tracer.find("study.run"):
                if sp.finished:
                    return sp.duration_s
        return 0.0

    def _traced(self) -> Tracer:
        if self.tracer is None:
            raise ConfigurationError(
                "run was not traced; pass RunOptions(trace=...) to Study.run"
            )
        return self.tracer

    def write_trace(self, path: "str | Path", meta: dict | None = None) -> Path:
        """Write the Chrome-trace JSON document for this run.

        The document's ``otherData.meta`` always carries ``command``,
        ``parallel`` and ``wall_s`` (what ``tools/trace.py --validate``
        checks span sums against); *meta* entries override/extend them.
        """
        tracer = self._traced()
        parallel = self.options.parallel if self.options else None
        full_meta = {
            "command": "repro.api.Study.run",
            "parallel": int(parallel or 0),
            "wall_s": self.wall_s,
            **(meta or {}),
        }
        self.trace_path = write_trace_json(
            path, tracer, metrics=self.metrics, meta=full_meta
        )
        return self.trace_path

    def phase_summary(self, max_depth: int = 1) -> TextTable:
        """ASCII phase-summary table of the recorded spans."""
        return phase_table(self._traced(), max_depth=max_depth)

    def metrics_summary(self) -> TextTable:
        """The run's counter/gauge deltas as an aligned table."""
        self._traced()
        return metrics_table(self.metrics)


class Study:
    """The execution matrix: every (algorithm, size, threads) cell is
    lowered, simulated on the machine and measured, and its numerics
    optionally checked, into a :class:`StudyResult`.

    Construction takes the *what* (machine, algorithms, matrix; the
    keywords override the same-named :class:`StudyConfig` fields of
    *config*); :meth:`run` takes the *how* (:class:`RunOptions`).  All
    arguments are optional — ``Study().run()`` reproduces the paper's
    full execution matrix on the paper's Haswell E3-1225.
    """

    def __init__(
        self,
        machine: MachineSpec | None = None,
        *,
        algorithms: Sequence[MatmulAlgorithm] | None = None,
        sizes: Sequence[int] | None = None,
        threads: Sequence[int] | None = None,
        seed: int | None = None,
        execute_max_n: int | None = None,
        verify: bool | None = None,
        baseline: str | None = None,
        config: StudyConfig | None = None,
    ):
        self.machine = machine if machine is not None else haswell_e3_1225()
        overrides = {
            name: value
            for name, value in (
                ("sizes", None if sizes is None else tuple(sizes)),
                ("threads", None if threads is None else tuple(threads)),
                ("seed", seed),
                ("execute_max_n", execute_max_n),
                ("verify", verify),
                ("baseline", baseline),
            )
            if value is not None
        }
        cfg = config if config is not None else StudyConfig()
        self.config = replace(cfg, **overrides) if overrides else cfg
        self.algorithms = (
            list(algorithms)
            if algorithms is not None
            else paper_algorithms(self.machine)
        )
        if not self.algorithms:
            raise ConfigurationError("study needs at least one algorithm")
        names = [a.name for a in self.algorithms]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate algorithm names: {names}")
        if self.config.baseline not in names:
            raise ConfigurationError(
                f"baseline {self.config.baseline!r} is not among {names}"
            )

    def run(self, options: RunOptions | None = None) -> StudyRun:
        """Execute the matrix under *options*: one sweep, whatever the
        options (DESIGN §7.3).

        Key the cells and serve the store hits (``options.store``
        checkpoints the sweep); compute the misses through
        :func:`_run_cells` — in-process, or over a pool of up to
        ``options.parallel`` workers when that is > 1 — and ``put``
        each as it is collected, so a rerun of an interrupted sweep
        resumes it; then merge in the serial (table) order.  Results
        are identical either way, and so is the run engine's MSR
        counter stream: cells run on an MSR-less engine, and the merge
        deposits every cell's plane energies in serial order.  The
        matrix runs under a ``study.run`` span, each cell under a
        ``cell`` span.
        """
        opts = options if options is not None else RunOptions()
        # Anything but a kernel name is a ready engine (an Engine, or a
        # duck-typed wrapper such as repro.sim.NoisyEngine).
        engine = opts.engine
        if engine is None or isinstance(engine, str):
            engine = Engine(self.machine, engine=engine)
        if not opts.trace:
            return StudyRun(self._run(engine, opts.parallel, opts.store), options=opts)
        reg = metrics_registry()
        snap = reg.snapshot()
        with trace.tracing() as tracer:
            result = self._run(engine, opts.parallel, opts.store)
        run = StudyRun(result, tracer, reg.export_delta(snap), options=opts)
        if not isinstance(opts.trace, bool):
            run.write_trace(opts.trace)
        return run

    def _run(
        self,
        engine: Engine,
        parallel: int | None,
        store: "ResultStore | str | Path | None",
    ) -> StudyResult:
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
            records = self._cell_records(engine, cells)
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
            cell_engine = _cell_engine(engine)
            payloads = [self._payload(cell_engine, alg, n, p) for alg, n, p in misses]
            outcomes: dict[tuple[str, int, int], tuple] = {}
            with _pool(min(parallel or 0, len(misses))) as pool:
                computed = _run_cells(payloads, pool, traced=trace.enabled())
                for (alg, n, p), outcome in zip(misses, computed):
                    coords = (alg.name, n, p)
                    outcomes[coords] = outcome
                    if store is not None:
                        key, meta = records[coords]
                        store.put(key, outcome[0], meta=meta)
            msr = getattr(engine, "msr", None)
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
        self, engine: Engine, cells: list[tuple[MatmulAlgorithm, int, int]]
    ) -> dict[tuple[str, int, int], tuple[str, dict]]:
        """Every cell's store key and entry ``meta`` on *engine*
        (:func:`~repro.core.resultstore.cell_record`).  Raises
        :class:`ConfigurationError` when the engine or an algorithm
        cannot be keyed."""
        fingerprints: dict[str, str] = {}
        cfg = self.config
        return {
            (alg.name, n, p): cell_record(
                engine, alg, n, p, seed=cfg.seed,
                execute=n <= cfg.execute_max_n, verified=self._verified(n),
                fingerprints=fingerprints,
            )
            for alg, n, p in cells
        }

    def _verified(self, n: int) -> bool:
        """Whether the cell at size *n* checks its numerics."""
        return self.config.verify and n <= self.config.execute_max_n

    def _payload(
        self, engine: Engine, alg: MatmulAlgorithm, n: int, threads: int
    ) -> tuple:
        """Everything :func:`_run_cell` needs for one cell — no lowered
        graph: the cell is lowered where it runs, because re-lowering a
        cell costs milliseconds while shipping its arena costs
        megabytes (DESIGN §7.3)."""
        return (engine, alg, n, threads, self.config.seed, self._verified(n))

    def request(self) -> "StudyRequest":
        """This study's matrix as a service
        :class:`~repro.service.cells.StudyRequest`: its algorithm names,
        sizes, threads, seed and execute bound — so
        ``service.query(study.request())`` answers exactly the grid
        ``study.run()`` would compute."""
        from ..service.cells import StudyRequest

        return StudyRequest(
            algorithms=tuple(a.name for a in self.algorithms),
            sizes=self.config.sizes,
            threads=self.config.threads,
            seed=self.config.seed,
            execute_max_n=self.config.execute_max_n,
        )

    def serve(
        self,
        store: "str | Path | None" = None,
        *,
        config: "ServiceConfig | None" = None,
    ) -> "StudyService":
        """A :class:`~repro.service.service.StudyService` over this
        study's machine.

        The service answers arbitrary requests, not just this study's
        matrix; construction here just pins the machine (and hence the
        content-address domain).  Close the returned service (it is an
        async context manager) when done::

            async with Study(sizes=(512,)).serve(store="cells/") as svc:
                response = await svc.query(svc_request)
        """
        from ..service.service import ServiceConfig, StudyService

        cfg = config if config is not None else ServiceConfig(
            verify=self.config.verify
        )
        return StudyService(machine=self.machine, store=store, config=cfg)


def _cell_engine(engine: Engine) -> Engine:
    """The engine a run's cells run on: *engine* itself, or an MSR-less
    copy when it has an MSR (the merge deposits into that MSR).  A
    duck-typed wrapper such as :class:`~repro.sim.noise.NoisyEngine`
    has none, so its RNG advances in-process, in serial order."""
    if getattr(engine, "msr", None) is None:
        return engine
    engine = copy.copy(engine)
    engine.msr = None
    return engine


def _run_cell(payload, inputs: NumericsInputs | None = None) -> RunMeasurement:
    """Build, simulate and (optionally) check the numerics of one cell.

    Every cell simulates its cost-only lowering.  A *verified* cell then
    checks its stamped numerics program against the simulated
    schedule's start order and verifies the product
    (:meth:`~repro.algorithms.base.MatmulAlgorithm.check_numerics`,
    sharing operands and reference product through *inputs* when
    given); the measurement never depends on it.

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
            build = alg.build_cached(n, threads)
        with trace.span("simulate", alg=alg.name, n=n, threads=threads):
            measurement, schedule = engine.simulate(
                build.graph, threads, label=f"{alg.name}[n={n},p={threads}]"
            )
        if verified:
            # The check reads only the start order: keep that, so the
            # schedule's interval rows (3 MB at CAPS n=1024) are freed
            # before the program runs.
            schedule = _StartOrder(schedule)
            alg.check_numerics(
                n, threads, schedule, build.graph, seed=seed, inputs=inputs
            )
        if snap is not None:
            cell_span.set(
                sim_elapsed_s=measurement.elapsed_s,
                metrics=metrics_registry().delta_since(snap),
            )
    return measurement


class _StartOrder:
    """A schedule reduced to what a numerics check reads from it."""

    __slots__ = ("_order",)

    def __init__(self, schedule):
        self._order = schedule.start_order()

    def start_order(self) -> list[int]:
        return self._order


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
    ``None``), and the verified cells share one
    :class:`~repro.linalg.verify.NumericsInputs`: each ``(n, seed)``'s
    operands are drawn and its reference product computed once, and
    released as soon as the last verified payload of that ``(n, seed)``
    has run.  With one, all cells are submitted up front and collected
    in submission order: *traced* asks workers for their spans and
    metric deltas (:func:`_run_cell_worker`).

    Fault policy: a failed future — the cell raised in the pool, its
    worker died, or the submit hit a broken pool — ticks
    ``study.worker_failures`` and the cell is recomputed in-process
    (``study.cells_recomputed``, ``recomputed=True``): the same code, so
    the same bits.  Pool cells and recomputed cells draw their own
    inputs.  Only an exception from that in-process run escapes,
    as a :class:`StudyCellError` naming the cell.
    """
    if pool is None:
        inputs = NumericsInputs(
            (n, seed) if verified else None
            for _, _, n, _, seed, verified in payloads
        )
        try:
            for step, payload in enumerate(payloads):
                measurement = _run_cell(payload, inputs)
                inputs.done(step)
                yield measurement, None, None, False
        finally:
            inputs.clear()
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
