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

import copy
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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
from ..util.deprecation import warn_deprecated
from ..util.errors import ConfigurationError, StudyCellError, ValidationError
from ..util.validation import require_nonempty, require_positive
from .ep import EPConvention, EPMeasurement
from .resultstore import (
    ResultStore,
    algorithm_fingerprint,
    cell_key,
    engine_fingerprint,
    machine_fingerprint,
)
from .scaling import ScalingPoint, scaling_series

__all__ = [
    "StudyConfig",
    "StudyResult",
    "EnergyPerformanceStudy",
    "PAPER_SIZES",
    "PAPER_THREADS",
    "TRANSPORTS",
    "prebuild_arena_cell",
]

#: Arena transports the parallel driver accepts: ``"auto"`` prefers
#: shared memory and falls back to pickling, the other two force one.
TRANSPORTS: tuple[str, ...] = ("auto", "shm", "pickle")

#: Environment override for the transport (used by CI to force the shm
#: path through entry points that don't plumb the knob, e.g. the verify
#: harness's serial-vs-parallel study differential).
TRANSPORT_ENV = "REPRO_STUDY_TRANSPORT"

_PICKLE_BYTES_AVOIDED = counter(
    "study.pickle_bytes_avoided",
    unit="B",
    description="arena column bytes shipped to workers by descriptor "
    "instead of pickle",
)

_CELLS_RESUMED = counter(
    "study.cells_resumed",
    description="study cells served from the run's result store instead "
    "of simulated",
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
        Sizes up to this bound check their numerics: the cell lowers the
        executed graph, replays its numpy closures in the simulated
        schedule's start order and verifies the product
        (:func:`repro.runtime.replay.replay_numerics`).  Every cell
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

    def avg_power(self, alg: str) -> float:
        """Deprecated alias of :meth:`avg_power_w` (kept so existing
        callers don't break; see CONTRIBUTING.md's deprecation policy)."""
        warn_deprecated("StudyResult.avg_power", "StudyResult.avg_power_w")
        return self.avg_power_w(alg)

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
        engine: Engine | None = None,
        *,
        _engine: Engine | None = None,
    ):
        if engine is not None:
            # Kept working behind a shim: the stable way to pick an
            # event kernel is repro.api.RunOptions(engine="fast").
            warn_deprecated(
                "EnergyPerformanceStudy(engine=...)",
                "repro.api.Study.run(RunOptions(engine=...))",
            )
        engine = engine if engine is not None else _engine
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
        self.engine = engine or Engine(machine)

    def run(self, parallel: int | None = None) -> StudyResult:
        """Execute the full matrix.

        Parameters
        ----------
        parallel:
            ``None``/``0``/``1`` runs the cells serially (in the
            paper's table order).  ``N > 1`` fans the independent
            (algorithm, size, threads) cells across a process pool of
            ``N`` workers.  The result is deterministic and identical
            to the serial run: cells are merged back in the serial
            iteration order regardless of completion order, and worker
            engines run without an MSR — the parent deposits every
            cell's plane energies into its own MSR afterwards, again in
            serial order, so a PAPI/RAPL reader wrapped around
            :meth:`run` observes the same counter stream either way.

        .. deprecated::
            ``run(parallel=N)`` is kept behind a shim; the stable entry
            point is ``repro.api.Study.run(RunOptions(parallel=N))``.
        """
        if parallel is not None:
            warn_deprecated(
                "EnergyPerformanceStudy.run(parallel=...)",
                "repro.api.Study.run(RunOptions(parallel=...))",
            )
        return self._run(parallel)

    def _run(
        self,
        parallel: int | None = None,
        *,
        transport: str | None = None,
        store: "ResultStore | str | Path | None" = None,
    ) -> StudyResult:
        """Internal entry point (no deprecation shim; used by
        :mod:`repro.api`).  Instrumented: the whole matrix runs under a
        ``study.run`` span, each cell under a ``cell`` span (serial
        in-process; parallel via deterministic worker-trace merge).

        *transport* picks how parallel runs ship pre-lowered arenas to
        workers (see :data:`TRANSPORTS`; ``None`` = env override or
        ``"auto"``).  *store* (a :class:`ResultStore` or its directory)
        checkpoints the sweep: a cell whose key is stored is served
        from it, any other is simulated and stored, so rerunning an
        interrupted sweep resumes it bit-identically.
        """
        result = StudyResult(
            machine=self.machine,
            config=self.config,
            algorithm_names=[a.name for a in self.algorithms],
            display_names={a.name: a.display_name for a in self.algorithms},
        )
        cells = self._cells()
        keys = None
        if store is not None:
            # Key first: an engine or algorithm no key can describe is
            # refused before the store directory is even created.
            keys = self._cell_keys(cells)
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
            if parallel is not None and parallel > 1 and len(cells) > 1:
                self._run_parallel(
                    result, cells, parallel, transport=transport, store=store, keys=keys
                )
            else:
                self._run_serial(result, cells, store, keys)
        return result

    def _cells(self) -> list[tuple[MatmulAlgorithm, int, int]]:
        """The matrix in serial (table) order."""
        return [
            (alg, n, p)
            for alg in self.algorithms
            for n in self.config.sizes
            for p in self.config.threads
        ]

    # ---- checkpoint/resume ---------------------------------------------

    def _cell_keys(
        self, cells: list[tuple[MatmulAlgorithm, int, int]]
    ) -> dict[tuple[str, int, int], str]:
        """Every cell's store key.  Raises :class:`ConfigurationError`
        when the engine or an algorithm cannot be keyed."""
        engine_fp = engine_fingerprint(self.engine)
        machine_fp = machine_fingerprint(self.engine.machine)
        alg_fps = {a.name: algorithm_fingerprint(a) for a in self.algorithms}
        cfg = self.config
        return {
            (alg.name, n, p): cell_key(
                machine_fp, alg_fps[alg.name], n, p, seed=cfg.seed,
                verified=self._verified(n), engine=engine_fp,
            )
            for alg, n, p in cells
        }

    def _put(
        self, store: ResultStore, key: str, coords: tuple[str, int, int],
        measurement: RunMeasurement,
    ) -> None:
        alg, n, p = coords
        meta = {"machine": self.machine.name, "algorithm": alg, "n": n, "threads": p}
        store.put(key, measurement, meta=meta)

    def _run_serial(
        self,
        result: StudyResult,
        cells: list[tuple[MatmulAlgorithm, int, int]],
        store: ResultStore | None,
        keys: dict[tuple[str, int, int], str] | None,
    ) -> None:
        """The serial (table-order) sweep, optionally against a store.

        Store hits skip simulation but still deposit their plane
        energies into the engine's MSR — in the same serial order the
        uninterrupted run would — so a RAPL/PAPI reader wrapped around
        the run observes an identical counter stream.
        """
        msr = getattr(self.engine, "msr", None)
        for alg, n, p in cells:
            coords = (alg.name, n, p)
            measurement = store.get(keys[coords]) if store is not None else None
            if measurement is None:
                measurement = self._run_one(alg, n, p)
                if store is not None:
                    self._put(store, keys[coords], coords, measurement)
            else:
                _CELLS_RESUMED.add()
                if msr is not None:
                    deposit_planes(msr, measurement.energy)
            result.runs[coords] = measurement

    def _verified(self, n: int) -> bool:
        """Whether the cell at size *n* checks its numerics."""
        return self.config.verify and n <= self.config.execute_max_n

    def _run_one(self, alg: MatmulAlgorithm, n: int, threads: int) -> RunMeasurement:
        return _run_cell(
            (self.engine, alg, n, threads, self.config.seed, self._verified(n), None)
        )

    def _prebuild(self, alg: MatmulAlgorithm, n: int, threads: int):
        return prebuild_arena_cell(alg, n, threads, seed=self.config.seed)

    def _run_parallel(
        self,
        result: StudyResult,
        cells: list[tuple[MatmulAlgorithm, int, int]],
        workers: int,
        *,
        transport: str | None = None,
        store: ResultStore | None = None,
        keys: dict[tuple[str, int, int], str] | None = None,
    ) -> None:
        """Fan *cells* over a process pool; merge deterministically.

        Under the ``"shm"`` transport (the default when available) the
        parent lowers each cost-only arena cell once into a pooled
        shared-memory segment and ships workers only the picklable
        :class:`~repro.runtime.shm.ArenaDescriptor` — O(100) bytes per
        cell instead of the multi-megabyte column payloads — which the
        worker attaches read-only and runs the arena-native fast engine
        on directly.  Segment lifecycle is owned by an
        :class:`~repro.runtime.shm.ArenaPool` closed in a ``finally``,
        so segments are unlinked even on worker crash or Ctrl-C (POSIX
        keeps the pages alive for workers that still map them).

        When tracing is enabled in the parent, each worker records its
        cell under a fresh in-process tracer and ships the exported
        spans (plus its per-cell metric deltas) back alongside the
        measurement.  The parent attaches worker traces in submission
        (= serial) order — never completion order — so the merged trace
        structure and metric totals are identical run to run, the same
        guarantee the measurements already have.

        With a *store*, cells are prefetched with ``store.get`` (a corrupt
        entry reads as a miss and is resubmitted); hits re-enter the merge
        in serial order, computed cells are ``put`` as they are collected.
        """
        from concurrent.futures import ProcessPoolExecutor

        from ..runtime.shm import ArenaPool, record_fallback

        mode = _resolve_transport(transport)
        # Workers get an MSR-less copy of the engine: MSR deposits are
        # replayed by the parent (below) so the counter stream matches
        # the serial run, and emulated MSR files need not be picklable.
        worker_engine = copy.copy(self.engine)
        worker_engine.msr = None
        traced = trace.enabled()
        hits: dict[tuple[str, int, int], RunMeasurement] = {}
        if store is not None:
            fetched = {coords: store.get(key) for coords, key in keys.items()}
            hits = {coords: m for coords, m in fetched.items() if m is not None}
        pending = [(alg, n, p) for alg, n, p in cells if (alg.name, n, p) not in hits]
        arena_pool = ArenaPool() if mode == "shm" and pending else None
        outcomes: dict[tuple[str, int, int], tuple] = {}
        try:
            with trace.span("prebuild", cells=len(pending), transport=mode):
                payloads = []
                for alg, n, p in pending:
                    prebuilt = self._prebuild(alg, n, p)
                    if prebuilt is not None and arena_pool is not None:
                        arena = prebuilt.graph
                        try:
                            descriptor = arena.to_shm(arena_pool)
                        except OSError as exc:
                            # Segment creation failed (ENOSPC on a tiny
                            # /dev/shm, EMFILE, ...): ship this cell —
                            # and keep shipping the rest — by pickle.
                            record_fallback(str(exc))
                        else:
                            _PICKLE_BYTES_AVOIDED.add(arena.nbytes)
                            prebuilt = _ShmBuild(
                                descriptor=descriptor,
                                n=prebuilt.n,
                                variant=prebuilt.variant,
                                cutoff=prebuilt.cutoff,
                            )
                    payloads.append(
                        (
                            worker_engine,
                            alg,
                            n,
                            p,
                            self.config.seed,
                            self._verified(n),
                            prebuilt,
                        )
                    )
            if payloads:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(payloads))
                ) as pool:
                    futures = [
                        pool.submit(_run_cell_worker, payload, traced)
                        for payload in payloads
                    ]
                    # Collect in submission (= serial) order; a slow
                    # early cell simply makes later .result() calls
                    # return instantly.  A crashing worker is re-raised
                    # with the failing cell's coordinates instead of a
                    # bare pool traceback.
                    for (alg, n, p), future in zip(pending, futures):
                        coords = (alg.name, n, p)
                        try:
                            outcomes[coords] = future.result()
                        except StudyCellError:
                            raise
                        except Exception as exc:
                            raise StudyCellError(alg.name, n, p, exc) from exc
                        if store is not None:
                            self._put(store, keys[coords], coords, outcomes[coords][0])
        finally:
            if arena_pool is not None:
                arena_pool.close()
        tracer = trace.active()
        msr = getattr(self.engine, "msr", None)
        with trace.span("merge", cells=len(cells)):
            for alg, n, p in cells:
                coords = (alg.name, n, p)
                outcome = outcomes.get(coords)
                if outcome is not None:
                    measurement, _, metric_delta = outcome
                    if metric_delta:
                        metrics_registry().absorb(metric_delta)
                else:
                    measurement = hits[coords]
                    _CELLS_RESUMED.add()
                result.runs[coords] = measurement
                if msr is not None:
                    deposit_planes(msr, measurement.energy)
        # Attach worker spans after the merge span closes so cells sit
        # at depth 1 under study.run, exactly like the serial path (the
        # default phase summary aggregates at max_depth=1).
        if tracer is not None:
            for alg, n, p in pending:
                outcome = outcomes.get((alg.name, n, p))
                if outcome is not None and outcome[1]:
                    tracer.attach(outcome[1])


def prebuild_arena_cell(
    alg: MatmulAlgorithm,
    n: int,
    threads: int,
    *,
    seed: int,
):
    """Lower a cell in the dispatching process when the result is a
    columnar arena — those pickle compactly (plain numpy columns, no
    ``Task`` objects or closures), so shipping the build saves every
    worker from re-lowering the same cell.  Every cell simulates its
    cost-only lowering, numerics-checked ones included (their executed
    graph is lowered worker-side by the replay); object-graph lowerings
    stay worker-side.

    Returns ``None`` whenever the cell should be built by the worker
    instead; shared by the parallel study driver and the study
    service's batch executor (:mod:`repro.service.executor`).
    """
    from ..runtime.arena import TaskArena

    try:
        build = alg.build_cached(n, threads, seed=seed)
    except Exception:
        # Let the worker hit the same failure so it surfaces with
        # the cell's coordinates via StudyCellError, not as a bare
        # dispatcher-side traceback during payload construction.
        return None
    if isinstance(build.graph, TaskArena):
        return build
    return None


def _resolve_transport(requested: str | None) -> str:
    """Resolve the arena transport for a parallel run.

    Precedence: explicit *requested* argument, then the
    :data:`TRANSPORT_ENV` environment variable, then ``"auto"``.
    ``"auto"`` probes shared-memory availability and degrades to
    ``"pickle"`` with a one-time warning plus the
    ``study.shm_fallbacks`` counter; forcing ``"shm"`` on a host
    without it is a :class:`ConfigurationError`.
    """
    from ..runtime.shm import record_fallback, shm_available

    mode = requested or os.environ.get(TRANSPORT_ENV) or "auto"
    if mode not in TRANSPORTS:
        raise ConfigurationError(
            f"unknown study transport {mode!r}; expected one of {TRANSPORTS}"
        )
    if mode == "pickle":
        return "pickle"
    ok, reason = shm_available()
    if ok:
        return "shm"
    if mode == "shm":
        raise ConfigurationError(
            f"transport='shm' requested but shared memory is unavailable: "
            f"{reason}"
        )
    record_fallback(reason)
    return "pickle"


@dataclass(frozen=True)
class _ShmBuild:
    """Worker payload stand-in for a parent-lowered arena build.

    Pickles to O(100) bytes: the arena's columns stay in the parent's
    pooled shared-memory segment and only this descriptor travels.  The
    worker re-inflates it to a cost-only
    :class:`~repro.algorithms.base.BuildResult` over the attached arena.
    """

    descriptor: object  # ArenaDescriptor (kept untyped: picklable leaf)
    n: int
    variant: str
    cutoff: int


def _run_cell(payload) -> RunMeasurement:
    """Build, simulate and (optionally) check the numerics of one cell.

    Every cell simulates its cost-only lowering.  A *verified* cell then
    lowers the executed graph and replays it in the simulated schedule's
    start order before verifying the product
    (:meth:`~repro.algorithms.base.MatmulAlgorithm.check_numerics`); the
    measurement never depends on it.

    Module-level so the parallel driver can send it to worker
    processes; the serial path calls it in-process with the study's
    own engine (MSR deposits then happen inside ``engine.simulate``).

    When tracing is active (serial: the study's tracer; parallel: the
    worker-local tracer installed by :func:`_run_cell_worker`), the
    whole cell runs under a ``cell`` span whose attributes carry the
    cell coordinates and the per-cell metric deltas (cache hits/misses,
    tasks lowered, kernel sweeps, ...); the span itself records the
    cell's wall and CPU time.
    """
    engine, alg, n, threads, seed, verified, prebuilt = payload
    attached = None
    if isinstance(prebuilt, _ShmBuild):
        from ..algorithms.base import BuildResult
        from ..runtime.arena import TaskArena

        try:
            attached = TaskArena.from_shm(prebuilt.descriptor)
        except Exception as exc:
            # Attach failures (segment unlinked early, name collision,
            # schema drift) surface with the cell's coordinates, not as
            # a bare FileNotFoundError out of the pool.
            raise StudyCellError(alg.name, n, threads, exc) from exc
        prebuilt = BuildResult(
            graph=attached,
            n=prebuilt.n,
            a=None,
            b=None,
            c=None,
            variant=prebuilt.variant,
            cutoff=prebuilt.cutoff,
        )
    try:
        with trace.span("cell", alg=alg.name, n=n, threads=threads) as cell_span:
            snap = metrics_registry().snapshot() if trace.enabled() else None
            if prebuilt is not None:
                build = prebuilt  # parent-lowered arena (see _prebuild)
            else:
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
    finally:
        if attached is not None:
            from ..runtime.shm import detach_arena

            del prebuilt
            detach_arena(attached)
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
