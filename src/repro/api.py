"""The stable public facade: ``repro.api``.

One import gives a user everything the paper reproduction exposes::

    from repro.api import Study, RunOptions, haswell_e3_1225

    run = Study(sizes=(512, 1024)).run(RunOptions(parallel=4, trace="out.json"))
    print(run.result.table3().to_ascii())
    print(run.phase_summary().to_ascii())

Design rules (CONTRIBUTING.md "Deprecation policy"):

* **Construction** is configuration: :class:`Study` collects the
  machine, algorithm set and matrix knobs.
* **Execution** is policy: :class:`RunOptions` collects the per-run
  choices (event kernel, process fan-out, tracing, execution bound)
  that older code passed piecemeal to ``EnergyPerformanceStudy``.
* Deprecated entry points keep working behind ``DeprecationWarning``
  shims for one minor release; this module never calls one itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .algorithms import MatmulAlgorithm
from .distributed import (
    ClusterSpec,
    NetRunResult,
    NetworkConfig,
    NetworkSweep,
    NetworkSweepResult,
    Topology,
)
from .core.resultstore import ResultStore
from .core.study import (
    PAPER_SIZES,
    PAPER_THREADS,
    EnergyPerformanceStudy,
    StudyConfig,
    StudyResult,
)
from .machine.specs import (
    MachineSpec,
    dual_socket_haswell,
    generic_smp,
    haswell_e3_1225,
)
from .observability import trace as _trace
from .observability.export import metrics_table, phase_table, write_trace_json
from .observability.metrics import registry as _registry
from .observability.trace import Tracer
from .runtime.scheduler import ENGINES
from .service.cells import StudyRequest
from .service.service import ServiceConfig, StudyService
from .sim.engine import Engine
from .sim.measurement import RunMeasurement
from .util.errors import ConfigurationError
from .util.tables import TextTable

__all__ = [
    "ClusterSpec",
    "Engine",
    "MachineSpec",
    "MatmulAlgorithm",
    "NetRunResult",
    "NetworkConfig",
    "NetworkSweep",
    "NetworkSweepResult",
    "PAPER_SIZES",
    "PAPER_THREADS",
    "RunMeasurement",
    "RunOptions",
    "ServiceConfig",
    "Study",
    "StudyConfig",
    "StudyRequest",
    "StudyResult",
    "StudyRun",
    "StudyService",
    "Topology",
    "available_engines",
    "dual_socket_haswell",
    "generic_smp",
    "haswell_e3_1225",
]


def available_engines() -> dict[str, tuple[bool, str]]:
    """Probe every event kernel: ``{name: (usable, detail)}``.

    ``reference`` and ``fast`` are pure Python/numpy and always usable;
    ``compiled`` needs a working C toolchain (or an already-compiled
    kernel in the JIT cache) and reports *why* when it cannot run.
    The same probe backs the ``repro engines`` subcommand.
    """
    from .runtime.compiledpath import compiled_available

    ok, reason = compiled_available()
    return {
        "reference": (True, "scalar oracle (pure Python)"),
        "fast": (True, "vectorized numpy kernel"),
        "compiled": (ok, reason if reason else "ready"),
    }


@dataclass(frozen=True)
class RunOptions:
    """Per-run execution policy.

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
        :func:`available_engines`.  An
        :class:`~repro.sim.engine.Engine` instance is also accepted
        when the caller needs a custom one (emulated MSR, noise
        wrapper, ...).
    parallel:
        ``None``/``0``/``1`` runs cells serially; ``N > 1`` fans the
        independent cells across a process pool.  Results are
        bit-identical either way (see
        :meth:`repro.core.study.EnergyPerformanceStudy.run`).
    trace:
        ``False`` (default) leaves tracing disabled — the zero-overhead
        path.  ``True`` records spans and returns them on the
        :class:`StudyRun`; a path string/``Path`` additionally writes
        the Chrome ``trace_event`` JSON there.
    execute_max_n / verify:
        Optional overrides of the same-named
        :class:`~repro.core.study.StudyConfig` fields for this run
        only; ``None`` keeps the study's configured values.
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
    execute_max_n: int | None = None
    verify: bool | None = None
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
        if self.tracer is None:
            return 0.0
        return _study_wall_s(self.tracer)

    def write_trace(self, path: "str | Path", meta: dict | None = None) -> Path:
        """Write the Chrome-trace JSON document for this run.

        The document's ``otherData.meta`` always carries ``command``,
        ``parallel`` and ``wall_s`` (what ``tools/trace.py --validate``
        checks span sums against); *meta* entries override/extend them.
        """
        if self.tracer is None:
            raise ConfigurationError(
                "run was not traced; pass RunOptions(trace=...) to Study.run"
            )
        parallel = self.options.parallel if self.options else None
        full_meta = {
            "command": "repro.api.Study.run",
            "parallel": int(parallel or 0),
            "wall_s": self.wall_s,
            **(meta or {}),
        }
        self.trace_path = write_trace_json(
            path, self.tracer, metrics=self.metrics, meta=full_meta
        )
        return self.trace_path

    def phase_summary(self, max_depth: int = 1) -> TextTable:
        """ASCII phase-summary table of the recorded spans."""
        if self.tracer is None:
            raise ConfigurationError(
                "run was not traced; pass RunOptions(trace=...) to Study.run"
            )
        return phase_table(self.tracer, max_depth=max_depth)

    def metrics_summary(self) -> TextTable:
        """The run's counter/gauge deltas as an aligned table."""
        if self.metrics is None:
            raise ConfigurationError(
                "run was not traced; pass RunOptions(trace=...) to Study.run"
            )
        return metrics_table(self.metrics)


class Study:
    """Facade over :class:`~repro.core.study.EnergyPerformanceStudy`.

    Construction takes the *what* (machine, algorithms, matrix);
    :meth:`run` takes the *how* (:class:`RunOptions`).  All arguments
    are optional — ``Study().run()`` reproduces the paper's full
    execution matrix on the paper's Haswell E3-1225.
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
        self.algorithms = list(algorithms) if algorithms is not None else None
        cfg = config if config is not None else StudyConfig()
        overrides: dict = {}
        if sizes is not None:
            overrides["sizes"] = tuple(sizes)
        if threads is not None:
            overrides["threads"] = tuple(threads)
        if seed is not None:
            overrides["seed"] = seed
        if execute_max_n is not None:
            overrides["execute_max_n"] = execute_max_n
        if verify is not None:
            overrides["verify"] = verify
        if baseline is not None:
            overrides["baseline"] = baseline
        self.config = replace(cfg, **overrides) if overrides else cfg

    def _engine(self, options: RunOptions) -> Engine:
        # Anything but a kernel name is a ready engine (an Engine, or a
        # duck-typed wrapper such as repro.sim.NoisyEngine).
        if options.engine is None or isinstance(options.engine, str):
            return Engine(self.machine, engine=options.engine)
        return options.engine

    def run(self, options: RunOptions | None = None) -> StudyRun:
        """Execute the matrix under *options* and return a :class:`StudyRun`."""
        opts = options if options is not None else RunOptions()
        cfg = self.config
        if opts.execute_max_n is not None:
            cfg = replace(cfg, execute_max_n=opts.execute_max_n)
        if opts.verify is not None:
            cfg = replace(cfg, verify=opts.verify)
        study = EnergyPerformanceStudy(
            self.machine,
            self.algorithms,
            config=cfg,
            _engine=self._engine(opts),
        )
        if not opts.trace:
            return StudyRun(
                result=study._run(opts.parallel, store=opts.store), options=opts
            )

        reg = _registry()
        snap = reg.snapshot()
        with _trace.tracing() as tracer:
            result = study._run(opts.parallel, store=opts.store)
        run = StudyRun(
            result=result,
            tracer=tracer,
            metrics=reg.export_delta(snap),
            options=opts,
        )
        if not isinstance(opts.trace, bool):
            run.write_trace(opts.trace)
        return run

    def request(self) -> StudyRequest:
        """This study's matrix as a service :class:`StudyRequest`.

        The request covers the configured algorithm names (or the
        paper's set), sizes, threads, seed and execute bound — so
        ``service.query(study.request())`` answers exactly the grid
        ``study.run()`` would compute.
        """
        if self.algorithms is not None:
            names = tuple(a.name for a in self.algorithms)
        else:
            from .algorithms.registry import paper_algorithms

            names = tuple(a.name for a in paper_algorithms(self.machine))
        return StudyRequest(
            algorithms=names,
            sizes=self.config.sizes,
            threads=self.config.threads,
            seed=self.config.seed,
            execute_max_n=self.config.execute_max_n,
        )

    def serve(
        self,
        store: "str | Path | None" = None,
        *,
        config: ServiceConfig | None = None,
        workers: int | None = None,
    ) -> StudyService:
        """A :class:`StudyService` over this study's machine.

        The service answers arbitrary requests, not just this study's
        matrix; construction here just pins the machine (and hence the
        content-address domain).  ``workers`` is a convenience override
        of ``config.workers``.  Close the returned service (it is an
        async context manager) when done::

            async with Study(sizes=(512,)).serve(store="cells/") as svc:
                response = await svc.query(svc_request)
        """
        cfg = config if config is not None else ServiceConfig(
            verify=self.config.verify
        )
        if workers is not None:
            cfg = replace(cfg, workers=workers)
        return StudyService(machine=self.machine, store=store, config=cfg)


def _study_wall_s(tracer: Tracer) -> float:
    """Wall seconds of the run's root ``study.run`` span (0.0 if absent)."""
    for sp in tracer.find("study.run"):
        if sp.finished:
            return sp.duration_s
    return 0.0
