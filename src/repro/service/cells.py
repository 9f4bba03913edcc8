"""Requests, cells and responses of the study service.

A :class:`StudyRequest` is what a client asks for — the same
(algorithm × size × threads) grid :class:`~repro.core.study.StudyConfig`
describes, plus the knobs that change simulated numbers (operand seed,
execute bound).  The service never works on requests directly: it
splits them into :class:`CellSpec`\\ s — one per grid point, in the
study's serial (table) order — because cells, not requests, are the
unit of dedup, batching and content addressing.  Two requests that
overlap in 30 cells share 30 computations.

A :class:`CellResult` pairs a cell with its measurement, content key
and provenance (``"store"``, ``"computed"``, or ``"inflight"`` when the
cell rode on another request's computation).  A :class:`StudyResponse`
carries the request's cells in serial order and can replay the MSR
energy stream or re-assemble a classic :class:`StudyResult`, so every
downstream table/figure helper works on served results unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.study import PAPER_THREADS, StudyConfig, StudyResult
from ..machine.specs import MachineSpec
from ..power.msr import deposit_planes
from ..power.planes import Plane
from ..sim.measurement import RunMeasurement
from ..util.validation import require_nonempty, require_positive

__all__ = ["CellResult", "CellSpec", "StudyRequest", "StudyResponse"]

#: Provenance values a :class:`CellResult` can carry.
SOURCES = ("store", "computed", "inflight")


@dataclass(frozen=True, order=True)
class CellSpec:
    """One point of the study grid: the unit of dedup and caching.

    ``execute`` mirrors the study's ``n <= execute_max_n`` decision —
    it changes what the cell *does* (a numerics replay + verification
    when the service verifies), so it is part of the spec, and the
    content key records whether the cell was verified, even though the
    simulated timings and energies are identical either way.
    """

    algorithm: str
    n: int
    threads: int
    seed: int = 2015
    execute: bool = False

    def __post_init__(self) -> None:
        require_positive(self.n, "n")
        require_positive(self.threads, "threads")

    def describe(self) -> str:
        return (
            f"{self.algorithm}[n={self.n},p={self.threads},seed={self.seed}"
            f"{',execute' if self.execute else ''}]"
        )


@dataclass(frozen=True)
class StudyRequest:
    """One client's study grid (the service's query unit)."""

    algorithms: tuple[str, ...]
    sizes: tuple[int, ...]
    threads: tuple[int, ...] = PAPER_THREADS
    seed: int = 2015
    execute_max_n: int = 1024

    def __post_init__(self) -> None:
        # Normalise sequences passed as lists so requests hash/compare
        # predictably and JSON round-trips cleanly.
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "threads", tuple(self.threads))
        require_nonempty(self.algorithms, "algorithms")
        require_nonempty(self.sizes, "sizes")
        require_nonempty(self.threads, "threads")
        for n in self.sizes:
            require_positive(n, "size")
        for p in self.threads:
            require_positive(p, "threads")

    def cells(self) -> list[CellSpec]:
        """The grid as cell specs, in the study's serial (table) order."""
        return [
            CellSpec(
                algorithm=alg,
                n=n,
                threads=p,
                seed=self.seed,
                execute=n <= self.execute_max_n,
            )
            for alg in self.algorithms
            for n in self.sizes
            for p in self.threads
        ]

    @classmethod
    def from_dict(cls, payload: dict) -> "StudyRequest":
        """Build a request from a JSON-shaped dict (the wire format)."""
        kwargs = {}
        for name in ("algorithms", "sizes", "threads"):
            if name in payload:
                kwargs[name] = tuple(payload[name])
        for name in ("seed", "execute_max_n"):
            if name in payload:
                kwargs[name] = int(payload[name])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "algorithms": list(self.algorithms),
            "sizes": list(self.sizes),
            "threads": list(self.threads),
            "seed": self.seed,
            "execute_max_n": self.execute_max_n,
        }


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
        :class:`~repro.core.study.EnergyPerformanceStudy` run produces,
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
