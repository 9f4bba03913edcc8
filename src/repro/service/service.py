"""The asyncio study-service front-end.

:class:`StudyService` turns the one-shot study driver into a
long-running query service:

* **Split** — a :class:`~repro.service.cells.StudyRequest` becomes cell
  specs in serial (table) order; cells, not requests, are the unit of
  work.
* **Hot path** — a request's cells (its validated cell specs,
  remembered per request) are resolved in one synchronous pass, in
  serial order: a cell whose content key
  (:func:`~repro.core.resultstore.cell_record`, memoized per cell spec,
  since every other key input is fixed for the service's lifetime) is
  in the :class:`~repro.core.resultstore.ResultStore` is answered on
  the spot; only in-flight and cold cells are awaited.  A grid the
  store answers in full creates no task and never yields to the event
  loop (sub-millisecond; the ``study_service`` bench section gates it).
  The server encodes each stored cell's reply fragment once and reuses
  it while the store returns the same measurement object
  (:class:`~repro.service.cells.ReplyEncoder`).  The spec, request and
  fragment memos each hold at most ``cache_entries`` entries.
* **Single flight** — concurrent requests for the same cold cell share
  one in-flight computation: the first requester enqueues the cell,
  every later one awaits the same future (``service.cells_deduped``).
* **Batch** — cold cells accumulate briefly (``batch_window_s``, or
  until ``batch_max_cells``) so overlapping requests coalesce into one
  executor batch, which runs off-loop in a worker thread through the
  study's own cell driver (:func:`repro.core.study._run_cells`) and —
  with ``workers > 1`` — fans out over a process pool whose workers
  lower their own cells.
* **Write-back** — computed cells are persisted before their futures
  resolve, under the key and entry ``meta`` a study run would write
  (:func:`~repro.core.resultstore.cell_record`), so a re-query is a
  store hit even across service restarts, and a study's store and the
  service's are one.

Consistency guarantee: a served cell is *bit-identical* to the same
cell freshly computed by a serial :class:`~repro.core.study.Study`
run — the executor runs the study's own cell driver, the store
round-trips measurements through its bit-exact pickle encoding, and
:meth:`StudyResponse.replay_msr` reproduces the serial MSR stream.
The ``study_service`` verify family (``python -m repro verify
--require study_service``) enforces all three.

Fault policy (see ``tests/service/test_service_faults.py``): a cell
whose worker raises or dies is recomputed in-process, under the one
policy the study driver applies too (``study.worker_failures``); a
cancelled client detaches without killing the shared computation
(``asyncio.shield``); corrupt store entries read as misses and are
recomputed and overwritten.  Every degradation bumps a counter; none
can produce a wrong answer.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from ..core.resultstore import ResultStore, cell_record
from ..machine.specs import MachineSpec, haswell_e3_1225
from ..observability import trace
from ..observability.metrics import counter, registry
from ..sim.measurement import RunMeasurement
from ..util.errors import ConfigurationError
from .cells import CellResult, CellSpec, StudyRequest, StudyResponse, remember
from .executor import CellExecutor

__all__ = ["ServiceConfig", "StudyService"]

_REQUESTS = counter(
    "service.requests", description="study requests accepted by the service"
)
_CELLS_REQUESTED = counter(
    "service.cells_requested", description="cells asked of the service"
)
_CELLS_DEDUPED = counter(
    "service.cells_deduped",
    description="requested cells that attached to an identical in-flight "
    "computation instead of triggering their own",
)
_CELLS_COMPUTED = counter(
    "service.cells_computed", description="cells freshly simulated by the service"
)
_CANCELLED = counter(
    "service.cancelled_waits",
    description="client waits cancelled mid-flight (the shared computation "
    "continues)",
)

#: Counter/metric name prefixes that make up the service ops dashboard.
_DASHBOARD_PREFIXES = ("service.", "store.", "study.")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`StudyService`.

    ``workers=0`` computes batches inline in the executor thread (the
    deterministic default); ``workers > 1`` fans batches over a
    process pool, as the parallel study does.  ``batch_window_s``
    is how long a cold cell waits for company before its batch
    dispatches — long enough to coalesce a burst of overlapping
    requests, far below human-visible latency.  ``engine=None`` lets
    the platform pick the event kernel
    (:func:`~repro.runtime.scheduler.default_engine`).
    """

    engine: str | None = None
    workers: int = 0
    verify: bool = True
    batch_max_cells: int = 64
    batch_window_s: float = 0.002
    cache_entries: int = 1024

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")
        if self.batch_max_cells < 1:
            raise ConfigurationError(
                f"batch_max_cells must be >= 1, got {self.batch_max_cells}"
            )
        if self.batch_window_s < 0:
            raise ConfigurationError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}"
            )


class StudyService:
    """Async batched EP-study server over one machine spec.

    Use as an async context manager (or call :meth:`close` yourself)::

        async with StudyService(store="cells/") as svc:
            response = await svc.query(StudyRequest(("caps",), (512,)))
    """

    def __init__(
        self,
        machine: MachineSpec | None = None,
        store: "ResultStore | str | Path | None" = None,
        config: ServiceConfig | None = None,
    ):
        self.machine = machine if machine is not None else haswell_e3_1225()
        self.config = config or ServiceConfig()
        if isinstance(store, (str, Path)):
            store = ResultStore(store, cache_entries=self.config.cache_entries)
        self.store = store
        self._executor = CellExecutor(
            self.machine,
            engine=self.config.engine,
            workers=self.config.workers,
            verify=self.config.verify,
        )
        #: ``cell_record``'s memo of the machine, engine and algorithm
        #: fingerprints, this service's memo of each spec's record, and
        #: its memo of each request's cell specs.
        self._fingerprints: dict[str, str] = {}
        self._records: dict[CellSpec, tuple[str, dict]] = {}
        self._requests: dict[StudyRequest, tuple[CellSpec, ...]] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._pending: list[tuple[CellSpec, str, asyncio.Future]] = []
        self._flush_handle: asyncio.TimerHandle | None = None
        self._batch_tasks: set[asyncio.Task] = set()
        self._batch_lock = asyncio.Lock()
        self._closed = False

    # ---- lifecycle -----------------------------------------------------

    async def __aenter__(self) -> "StudyService":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.close()
        return False

    async def close(self) -> None:
        """Flush pending work, wait for in-flight batches, shut down."""
        self._closed = True
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if self._pending:
            self._flush()
        while self._batch_tasks:
            await asyncio.gather(*tuple(self._batch_tasks), return_exceptions=True)
        self._executor.close()

    # ---- queries -------------------------------------------------------

    def key_for(self, spec: CellSpec) -> str:
        """The content address this service uses for *spec*."""
        return self._record(spec)[0]

    def _record(self, spec: CellSpec) -> "tuple[str, dict]":
        """*spec*'s store key and entry ``meta``
        (:func:`~repro.core.resultstore.cell_record`, which the study
        driver keys and records its cells with too).

        Memoized per spec: every other key input (the machine, engine
        and algorithm fingerprints, ``config.verify``) is fixed for the
        service's lifetime, so a remembered key is the one
        :func:`~repro.core.resultstore.cell_key` would derive again.
        The memo holds at most ``config.cache_entries`` specs and drops
        the oldest first.
        """
        record = self._records.get(spec)
        if record is not None:
            return record
        record = cell_record(
            self._executor.engine,
            self._executor.algorithm(spec.algorithm),
            spec.n,
            spec.threads,
            seed=spec.seed,
            execute=spec.execute,
            verified=spec.execute and self.config.verify,
            fingerprints=self._fingerprints,
        )
        remember(self._records, spec, record, self.config.cache_entries)
        return record

    def _cells(self, request: StudyRequest) -> "tuple[CellSpec, ...]":
        """*request*'s cell specs in serial order, remembered per request
        (at most ``config.cache_entries`` of them, oldest dropped
        first), so a re-asked grid builds and validates no spec."""
        specs = self._requests.get(request)
        if specs is None:
            specs = tuple(request.cells())
            remember(self._requests, request, specs, self.config.cache_entries)
        return specs

    async def query(self, request: StudyRequest) -> StudyResponse:
        """Answer a whole study grid; cells come back in serial order.

        Every cell is resolved in one synchronous pass, so a grid the
        store answers in full never yields to the event loop; only the
        in-flight and cold cells are awaited, together.
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        _REQUESTS.add()
        with trace.span("service.request") as span:
            if span is not trace.NULL_SPAN:
                span.set(
                    algorithms=list(request.algorithms),
                    sizes=list(request.sizes),
                    threads=list(request.threads),
                )
            specs = self._cells(request)
            resolved = [self._resolve(spec) for spec in specs]
            waits = [answer for _, source, answer in resolved if source != "store"]
            if waits:
                waited = iter(await asyncio.gather(*map(self._wait, waits)))
            cells = [
                CellResult(
                    spec, key, answer if source == "store" else next(waited), source
                )
                for spec, (key, source, answer) in zip(specs, resolved)
            ]
            response = StudyResponse(request=request, cells=cells)
            if span is not trace.NULL_SPAN:
                span.set(**response.source_counts())
        return response

    async def query_cell(self, spec: CellSpec) -> CellResult:
        """Answer one cell: store hit, in-flight attach, or fresh compute."""
        key, source, answer = self._resolve(spec)
        if source != "store":
            answer = await self._wait(answer)
        return CellResult(spec, key, answer, source)

    def _resolve(
        self, spec: CellSpec
    ) -> "tuple[str, str, RunMeasurement | asyncio.Future]":
        """Everything a cell needs before anything is awaited:
        ``(key, source, answer)``.

        A store hit's answer is its measurement.  An in-flight or cold
        cell's answer is the shared future to await; a cold cell is
        registered in flight and queued for the next batch here.
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        _CELLS_REQUESTED.add()
        key = self._record(spec)[0]

        future = self._inflight.get(key)
        if future is not None:
            _CELLS_DEDUPED.add()
            return key, "inflight", future

        if self.store is not None:
            measurement = self.store.get(key)
            if measurement is not None:
                return key, "store", measurement

        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = future
        self._pending.append((spec, key, future))
        self._schedule_flush(loop)
        return key, "computed", future

    async def _wait(self, future: asyncio.Future):
        """Await a shared cell future without owning it: cancelling the
        *caller* must not cancel the computation other clients (and the
        store write-back) depend on."""
        try:
            return await asyncio.shield(future)
        except asyncio.CancelledError:
            if not future.cancelled():
                _CANCELLED.add()
            raise

    # ---- batching ------------------------------------------------------

    def _schedule_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        if len(self._pending) >= self.config.batch_max_cells:
            if self._flush_handle is not None:
                self._flush_handle.cancel()
                self._flush_handle = None
            self._flush()
        elif self._flush_handle is None:
            self._flush_handle = loop.call_later(
                self.config.batch_window_s, self._flush_timer
            )

    def _flush_timer(self) -> None:
        self._flush_handle = None
        self._flush()

    def _flush(self) -> None:
        batch, self._pending = self._pending, []
        if not batch:
            return
        task = asyncio.get_event_loop().create_task(self._run_batch(batch))
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(
        self, batch: list[tuple[CellSpec, str, asyncio.Future]]
    ) -> None:
        """Compute one batch off-loop and resolve its futures.

        The batch lock serialises executor access (algorithm build
        caches and the worker pool are shared); batches therefore
        complete in dispatch order, and every resolved cell is already
        persisted, so attached waiters and re-queries agree.
        """
        specs = [spec for spec, _, _ in batch]
        try:
            async with self._batch_lock:
                results = await asyncio.to_thread(self._executor.compute, specs)
        except BaseException as exc:
            for _, key, future in batch:
                self._inflight.pop(key, None)
                if not future.done():
                    future.set_exception(exc)
            # Don't let "nobody awaited us yet" turn into an unhandled-
            # exception log: the futures carry the error to clients.
            for _, _, future in batch:
                if future.done() and not future.cancelled():
                    future.exception()
            return
        for spec, key, future in batch:
            measurement = results[spec]
            if self.store is not None:
                self.store.put(key, measurement, meta=self._record(spec)[1])
            _CELLS_COMPUTED.add()
            self._inflight.pop(key, None)
            if not future.done():
                future.set_result(measurement)

    # ---- introspection -------------------------------------------------

    def display_names(self, names: Iterable[str]) -> dict[str, str]:
        return self._executor.display_names(tuple(names))

    def stats(self) -> dict[str, float]:
        """The service ops dashboard: every ``service.*``, ``store.*``
        and ``study.*`` counter/gauge value, by name."""
        out: dict[str, float] = {}
        for metric in registry():
            if metric.name.startswith(_DASHBOARD_PREFIXES):
                out[metric.name] = metric.value
        return out
