"""Async batched EP-study service with a content-addressed result store.

The service layer (PR 6) turns the one-shot study driver into a
long-running, query-oriented front end:

* :mod:`repro.service.cells` — requests, cell specs, results.
* :mod:`repro.service.service` — the asyncio :class:`StudyService`
  (dedup, batching, store traffic).
* :mod:`repro.service.executor` — the synchronous :class:`CellExecutor`
  that actually simulates batches (serial or over a worker pool).
* :mod:`repro.service.server` — a unix-socket JSON-lines front door
  (``repro serve`` / ``repro query``).

The persistent store itself lives in :mod:`repro.core.resultstore`.
"""

from .cells import SOURCES, CellResult, CellSpec, StudyRequest, StudyResponse
from .executor import CellExecutor
from .server import ServiceClient, serve
from .service import ServiceConfig, StudyService

__all__ = [
    "SOURCES",
    "CellExecutor",
    "CellResult",
    "CellSpec",
    "ServiceClient",
    "ServiceConfig",
    "StudyRequest",
    "StudyResponse",
    "StudyService",
    "serve",
]
