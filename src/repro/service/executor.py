"""Synchronous batch executor behind the asyncio study service.

The service front-end (:mod:`repro.service.service`) is pure
coordination — dedup, batching, store traffic.  Actually simulating a
batch of cold cells is CPU work, and it happens here, off the event
loop (the service calls :meth:`CellExecutor.compute` through
``asyncio.to_thread``).

The executor holds only what is the service's own: a service-lifetime
:class:`~concurrent.futures.ProcessPoolExecutor` (with ``workers > 1``),
one algorithm instance per name, and the mapping from a
:class:`CellSpec` to the study's cell payload.  Computing a batch is
the study driver's :func:`repro.core.study._run_cells` — the one cell
driver, fault policy included: a cell that fails in the pool (it
raised, or its worker died) is recomputed in-process, counted in
``study.worker_failures`` and ``study.cells_recomputed``.  A cell
computed by the service is therefore bit-identical to the same cell
computed by :meth:`repro.core.study.Study.run`, the
property the ``study_service`` verify family enforces.  A pool that
failed a cell is discarded once its batch is collected and lazily
rebuilt for the next.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..algorithms.base import MatmulAlgorithm
from ..algorithms.registry import make_algorithm
from ..core.study import _run_cells
from ..machine.specs import MachineSpec
from ..observability import trace
from ..observability.metrics import counter
from ..sim.engine import Engine
from ..sim.measurement import RunMeasurement
from .cells import CellSpec

__all__ = ["CellExecutor"]

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
        engine: str | None = None,
        workers: int = 0,
        verify: bool = True,
    ):
        self.machine = machine
        # The service's engine never carries an MSR: measurements are
        # identical without one (the study's parallel workers prove it)
        # and served results replay deposits via StudyResponse.replay_msr.
        self.engine = Engine(machine, engine=engine)
        self.workers = workers
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

    def _payload(self, spec: CellSpec) -> tuple:
        return (
            self.engine,
            self.algorithm(spec.algorithm),
            spec.n,
            spec.threads,
            spec.seed,
            spec.execute and self.verify,
        )

    # ---- compute -------------------------------------------------------

    def compute(self, specs: list[CellSpec]) -> dict[CellSpec, RunMeasurement]:
        """Simulate every cell in *specs*; returns spec → measurement.

        In-process for a single cell or ``workers <= 1``; otherwise
        fanned over the worker pool, each worker lowering its own cells
        (:func:`~repro.core.study._run_cells`).
        """
        with self._lock:
            _BATCHES.add()
            with trace.span(
                "service.batch", cells=len(specs), workers=self.workers
            ):
                pool = (
                    self._ensure_pool()
                    if self.workers > 1 and len(specs) > 1
                    else None
                )
                payloads = [self._payload(spec) for spec in specs]
                try:
                    outcomes = list(_run_cells(payloads, pool))
                except BaseException:
                    self._discard_pool()
                    raise
                if any(recomputed for *_, recomputed in outcomes):
                    self._discard_pool()
                return {spec: outcome[0] for spec, outcome in zip(specs, outcomes)}

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
