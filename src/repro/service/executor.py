"""Synchronous batch executor behind the asyncio study service.

The service front-end (:mod:`repro.service.service`) is pure
coordination — dedup, batching, store traffic.  Actually simulating a
batch of cold cells is CPU work, and it happens here, off the event
loop (the service calls :meth:`CellExecutor.compute` through
``asyncio.to_thread``).

The executor reuses the study driver's machinery wholesale: cells are
computed by :func:`repro.core.study._run_cell` with the *same* payload
tuples the parallel study builds, so a cell computed by the service is
bit-identical to the same cell computed by
:class:`~repro.core.study.EnergyPerformanceStudy` — the property the
``study_service`` verify family enforces.  With ``workers > 1`` a
service-lifetime :class:`~concurrent.futures.ProcessPoolExecutor` fans
the batch out, shipping parent-lowered arenas through the PR 5
shared-memory transport (descriptors instead of pickled columns) under
the same ``auto``/``shm``/``pickle`` resolution the study uses.

Fault policy: a worker that dies mid-batch (or a cell that raises in
the pool) must never surface a wrong or missing answer.  Each failed
cell is recomputed serially in-process — same code path, same floats —
with the ``service.worker_failures`` and ``service.cells_recomputed``
counters bumped; a broken pool is discarded and lazily rebuilt for the
next batch.
"""

from __future__ import annotations

import copy
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..algorithms.base import MatmulAlgorithm
from ..algorithms.registry import make_algorithm
from ..core.study import (
    _resolve_transport,
    _run_cell,
    _run_cell_worker,
    _ShmBuild,
    prebuild_arena_cell,
)
from ..machine.specs import MachineSpec
from ..observability import trace
from ..observability.metrics import counter
from ..sim.engine import Engine
from ..sim.measurement import RunMeasurement
from .cells import CellSpec

__all__ = ["CellExecutor"]

_WORKER_FAILURES = counter(
    "service.worker_failures",
    description="pool-side cell computations that failed and were retried "
    "in-process",
)
_CELLS_RECOMPUTED = counter(
    "service.cells_recomputed",
    description="cells recomputed serially after a worker failure",
)
_BATCHES = counter(
    "service.batches", description="cold-cell batches dispatched by the service"
)


class CellExecutor:
    """Computes batches of :class:`CellSpec`\\ s for one machine.

    Thread-safe for one batch at a time (a lock serialises
    :meth:`compute`); the service also serialises batches so results
    land in dispatch order.
    """

    def __init__(
        self,
        machine: MachineSpec,
        *,
        engine: "str | Engine" = "fast",
        workers: int = 0,
        transport: str | None = None,
        verify: bool = True,
    ):
        self.machine = machine
        base = engine if isinstance(engine, Engine) else Engine(machine, engine=engine)
        # The service's engine never carries an MSR: measurements are
        # identical without one (the study's parallel workers prove it)
        # and served results replay deposits via StudyResponse.replay_msr.
        self.engine = copy.copy(base)
        self.engine.msr = None
        self.workers = workers
        self.transport = transport
        self.verify = verify
        self._algorithms: dict[str, MatmulAlgorithm] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    # ---- helpers -------------------------------------------------------

    def algorithm(self, name: str) -> MatmulAlgorithm:
        """The (cached) algorithm instance for *name* — one instance per
        service so build caches and subtree templates amortise across
        batches and requests."""
        alg = self._algorithms.get(name)
        if alg is None:
            alg = make_algorithm(name, self.machine)
            self._algorithms[name] = alg
        return alg

    def display_names(self, names: "list[str] | tuple[str, ...]") -> dict[str, str]:
        return {name: self.algorithm(name).display_name for name in names}

    def _payload(self, spec: CellSpec, prebuilt=None) -> tuple:
        return (
            self.engine,
            self.algorithm(spec.algorithm),
            spec.n,
            spec.threads,
            spec.seed,
            spec.execute and self.verify,
            prebuilt,
        )

    # ---- compute -------------------------------------------------------

    def compute(self, specs: list[CellSpec]) -> dict[CellSpec, RunMeasurement]:
        """Simulate every cell in *specs*; returns spec → measurement.

        Serial in-process below the pool threshold; otherwise fanned
        over the worker pool with shm-transported prebuilt arenas.
        Failures degrade per-cell to a serial recompute.
        """
        with self._lock:
            _BATCHES.add()
            with trace.span(
                "service.batch", cells=len(specs), workers=self.workers
            ):
                if self.workers > 1 and len(specs) > 1:
                    return self._compute_pool(specs)
                return {spec: self._compute_serial(spec) for spec in specs}

    def _compute_serial(self, spec: CellSpec) -> RunMeasurement:
        return _run_cell(self._payload(spec))

    def _compute_pool(self, specs: list[CellSpec]) -> dict[CellSpec, RunMeasurement]:
        from ..runtime.shm import ArenaPool, record_fallback

        mode = _resolve_transport(self.transport)
        arena_pool = ArenaPool() if mode == "shm" else None
        out: dict[CellSpec, RunMeasurement] = {}
        failed: list[CellSpec] = []
        try:
            payloads = []
            for spec in specs:
                prebuilt = prebuild_arena_cell(
                    self.algorithm(spec.algorithm),
                    spec.n,
                    spec.threads,
                    seed=spec.seed,
                )
                if prebuilt is not None and arena_pool is not None:
                    arena = prebuilt.graph
                    try:
                        descriptor = arena.to_shm(arena_pool)
                    except OSError as exc:
                        record_fallback(str(exc))
                    else:
                        prebuilt = _ShmBuild(
                            descriptor=descriptor,
                            n=prebuilt.n,
                            variant=prebuilt.variant,
                            cutoff=prebuilt.cutoff,
                        )
                payloads.append(self._payload(spec, prebuilt))
            pool = self._ensure_pool()
            futures = [
                pool.submit(_run_cell_worker, payload, False)
                for payload in payloads
            ]
            for spec, future in zip(specs, futures):
                try:
                    out[spec] = future.result()[0]
                except Exception:
                    # Worker crash, BrokenProcessPool, or a cell-level
                    # error: recompute in-process so the client gets
                    # the right answer (or the real per-cell exception)
                    # instead of a pool traceback.
                    _WORKER_FAILURES.add()
                    failed.append(spec)
        finally:
            if arena_pool is not None:
                arena_pool.close()
        if failed:
            self._discard_pool()
            for spec in failed:
                _CELLS_RECOMPUTED.add()
                out[spec] = self._compute_serial(spec)
        return out

    # ---- pool lifecycle ------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except (BrokenProcessPool, OSError):  # pragma: no cover
                pass

    def close(self) -> None:
        with self._lock:
            self._discard_pool()

    def __enter__(self) -> "CellExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
