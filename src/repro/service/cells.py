"""Results and responses of the study service, and the reply encoding.

Requests and cell specs (:class:`StudyRequest`, :class:`CellSpec`) live
in :mod:`repro.service.client`, which the query client loads without
this module's study stack; they are re-exported here.

A :class:`CellResult` pairs a cell with its measurement, content key
and provenance (``"store"``, ``"computed"``, or ``"inflight"`` when the
cell rode on another request's computation).  A :class:`StudyResponse`
carries the request's cells in serial order and can replay the MSR
energy stream or re-assemble a classic :class:`StudyResult`, so every
downstream table/figure helper works on served results unchanged.
:class:`ReplyEncoder` writes ``query`` and ``cell`` replies for the
wire, building each stored cell's JSON once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..core.study import StudyConfig, StudyResult
from ..machine.specs import MachineSpec
from ..power.msr import deposit_planes
from ..power.planes import Plane
from ..sim.measurement import RunMeasurement
from .client import CellSpec, StudyRequest

__all__ = [
    "CellResult",
    "CellSpec",
    "ReplyEncoder",
    "StudyRequest",
    "StudyResponse",
]

#: Provenance values a :class:`CellResult` can carry.
SOURCES = ("store", "computed", "inflight")


def remember(memo: dict, key, value, bound: int) -> None:
    """Set ``memo[key] = value`` in a memo of at most *bound* entries
    that drops its oldest entry first; a *bound* of 0 keeps nothing."""
    if bound:
        if key not in memo and len(memo) >= bound:
            del memo[next(iter(memo))]
        memo[key] = value


@dataclass(frozen=True)
class CellResult:
    """One answered cell: measurement plus content key and provenance."""

    spec: CellSpec
    key: str
    measurement: RunMeasurement
    source: str  # one of SOURCES

    def summary(self) -> dict:
        """JSON-safe scalars of this cell (the wire format; floats
        round-trip bit-exactly through ``json`` via ``repr``)."""
        m = self.measurement
        return {
            "algorithm": self.spec.algorithm,
            "n": self.spec.n,
            "threads": self.spec.threads,
            "key": self.key,
            "source": self.source,
            "elapsed_s": m.elapsed_s,
            "energy_package_j": m.energy.package,
            "energy_pp0_j": m.energy.pp0,
            "energy_dram_j": m.energy.dram,
            "avg_power_w": m.avg_power_w(Plane.PACKAGE),
            "flops": m.flops,
        }


@dataclass
class StudyResponse:
    """Everything one :meth:`StudyService.query` produced, serial order."""

    request: StudyRequest
    cells: list[CellResult] = field(default_factory=list)

    def source_counts(self) -> dict[str, int]:
        counts = {source: 0 for source in SOURCES}
        for cell in self.cells:
            counts[cell.source] = counts.get(cell.source, 0) + 1
        return counts

    def replay_msr(self, msr) -> None:
        """Deposit every cell's plane energies into *msr* in serial
        order — the same counter stream an uninterrupted serial
        :class:`~repro.core.study.Study` run produces,
        so RAPL/PAPI readers observe served results identically."""
        for cell in self.cells:
            deposit_planes(msr, cell.measurement.energy)

    def to_study_result(
        self,
        machine: MachineSpec,
        *,
        display_names: dict[str, str] | None = None,
        baseline: str | None = None,
    ) -> StudyResult:
        """Re-assemble the classic :class:`StudyResult` so every table
        and figure helper works on served cells unchanged."""
        algs = list(self.request.algorithms)
        if baseline is None:
            baseline = "openblas" if "openblas" in algs else algs[0]
        config = StudyConfig(
            sizes=self.request.sizes,
            threads=self.request.threads,
            seed=self.request.seed,
            execute_max_n=self.request.execute_max_n,
            baseline=baseline,
        )
        result = StudyResult(
            machine=machine,
            config=config,
            algorithm_names=algs,
            display_names=display_names or {a: a for a in algs},
        )
        for cell in self.cells:
            result.runs[(cell.spec.algorithm, cell.spec.n, cell.spec.threads)] = (
                cell.measurement
            )
        return result


#: Each provenance value as it appears on the wire.
_SOURCE_JSON = {source: json.dumps(source).encode() for source in SOURCES}


def _fragment(cell: CellResult) -> tuple[bytes, bytes]:
    """*cell*'s :meth:`~CellResult.summary` JSON, split around its
    ``"source"`` value: the text before it and the text after it."""
    head: dict = {}
    tail: dict = {}
    part = head
    for name, value in cell.summary().items():
        if name == "source":
            part = tail
        else:
            part[name] = value
    return (
        (json.dumps(head)[:-1] + ', "source": ').encode(),
        (", " + json.dumps(tail)[1:]).encode(),
    )


class ReplyEncoder:
    """The wire encoding of ``query`` and ``cell`` replies.

    A reply is assembled as bytes from its head and each cell's
    :meth:`~CellResult.summary` fragment, and equals
    ``json.dumps(reply).encode()`` of the reply dict byte for byte.
    Fragments are remembered per cell key, at most *cache_entries* of
    them, oldest dropped first.  A fragment is reused only for the very
    measurement object it was built from: a store hit returns its LRU's
    object, so re-queries reuse it, while a re-read, a recompute or a
    store-less answer is a new object and gets a new fragment.
    """

    def __init__(self, cache_entries: int = 1024):
        self.cache_entries = cache_entries
        self._fragments: dict[str, tuple[RunMeasurement, bytes, bytes]] = {}

    def cell(self, cell: CellResult) -> bytes:
        """``json.dumps(cell.summary()).encode()``."""
        entry = self._fragments.get(cell.key)
        if entry is None or entry[0] is not cell.measurement:
            entry = (cell.measurement, *_fragment(cell))
            remember(self._fragments, cell.key, entry, self.cache_entries)
        return entry[1] + _SOURCE_JSON[cell.source] + entry[2]

    def query_reply(self, response: StudyResponse) -> bytes:
        """The ``query`` reply: the request, its source counts and its
        cells in serial order."""
        head = json.dumps(
            {
                "ok": True,
                "op": "query",
                "request": response.request.to_dict(),
                "sources": response.source_counts(),
            }
        )
        cells = b", ".join([self.cell(cell) for cell in response.cells])
        return b"".join((head[:-1].encode(), b', "cells": [', cells, b"]}"))

    def cell_reply(self, cell: CellResult) -> bytes:
        """The ``cell`` reply: one cell."""
        return b'{"ok": true, "op": "cell", "cell": ' + self.cell(cell) + b"}"
