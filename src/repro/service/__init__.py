"""Async batched EP-study service with a content-addressed result store.

The service layer turns the one-shot study driver into a
long-running, query-oriented front end:

* :mod:`repro.service.client` — requests, cell specs and the blocking
  :class:`ServiceClient`: everything ``repro query`` loads (no numpy,
  no study stack).
* :mod:`repro.service.cells` — results, responses and the reply
  encoding.
* :mod:`repro.service.service` — the asyncio :class:`StudyService`
  (dedup, batching, store traffic).
* :mod:`repro.service.executor` — the synchronous :class:`CellExecutor`
  that actually simulates batches (serial or over a worker pool).
* :mod:`repro.service.server` — a unix-socket JSON-lines front door
  (``repro serve`` / ``repro query``).

The persistent store itself lives in :mod:`repro.core.resultstore`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cells": ("SOURCES", "CellResult", "StudyResponse"),
    ".client": ("CellSpec", "ServiceClient", "StudyRequest"),
    ".executor": ("CellExecutor",),
    ".server": ("serve",),
    ".service": ("ServiceConfig", "StudyService"),
})
