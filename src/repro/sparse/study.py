"""Sparse storage-scheme EP study (§VIII extension).

"We shall provide data and results on both performance and energy
scaling for a cross-section of algorithms and sparse storage techniques"
— this driver sweeps storage schemes x thread counts over one pattern,
measures SpMV through the same engine as the dense study, and applies
the same EP/scaling equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.ep import EPMeasurement
from ..core.scaling import ScalingPoint, scaling_series
from ..machine.specs import MachineSpec
from ..observability import trace
from ..power.planes import Plane
from ..runtime.replay import replay_numerics
from ..sim.engine import Engine
from ..sim.measurement import RunMeasurement
from ..util.errors import ConfigurationError, ValidationError
from ..util.tables import TextTable
from ..util.validation import require_nonempty, require_positive
from .formats import BSRMatrix, COOMatrix, CSRMatrix, DIAMatrix, ELLMatrix, SparseMatrix
from .spmv import build_spmv_graph

__all__ = ["SparseEPStudy", "SparseStudyResult", "convert", "FORMATS"]

FORMATS: tuple[str, ...] = ("csr", "coo", "ell", "bsr", "dia")


def convert(coo: COOMatrix, fmt: str, block_size: int = 4) -> SparseMatrix:
    """Convert a COO pattern to the named storage scheme."""
    if fmt == "coo":
        return coo
    if fmt == "csr":
        return CSRMatrix.from_coo(coo)
    if fmt == "ell":
        return ELLMatrix.from_coo(coo)
    if fmt == "bsr":
        return BSRMatrix.from_coo(coo, block_size)
    if fmt == "dia":
        return DIAMatrix.from_coo(coo)
    raise ConfigurationError(f"unknown sparse format {fmt!r}; available: {FORMATS}")


@dataclass
class SparseStudyResult:
    """Measurements of one sparse sweep plus derived EP metrics."""

    machine: MachineSpec
    formats: list[str]
    threads: list[int]
    repeats: int
    nnz: int
    storage_bytes: dict[str, int]
    runs: dict[tuple[str, int], RunMeasurement] = field(default_factory=dict)

    def measurement(self, fmt: str, threads: int) -> RunMeasurement:
        key = (fmt, threads)
        if key not in self.runs:
            raise ValidationError(f"no run for {key}")
        return self.runs[key]

    def time_s(self, fmt: str, threads: int) -> float:
        return self.measurement(fmt, threads).elapsed_s

    def power_w(self, fmt: str, threads: int) -> float:
        return self.measurement(fmt, threads).avg_power_w(Plane.PACKAGE)

    def ep(self, fmt: str, threads: int) -> float:
        return EPMeasurement(self.measurement(fmt, threads)).ep

    def energy_per_sweep_j(self, fmt: str, threads: int) -> float:
        return self.measurement(fmt, threads).total_energy_j / self.repeats

    def scaling_curve(self, fmt: str) -> list[ScalingPoint]:
        if self.threads[0] != 1:
            raise ValidationError("scaling needs a 1-thread baseline")
        eps = [self.ep(fmt, p) for p in self.threads]
        return scaling_series(eps, self.threads)

    def summary_table(self) -> TextTable:
        """Per-format table at the top thread count: storage, time,
        watts, energy/sweep — the §VIII deliverable."""
        pmax = max(self.threads)
        table = TextTable(
            ["Format", "Storage MiB", "Time (s)", "Avg W", "J/sweep", "EP"],
            ndigits=4,
        )
        for fmt in self.formats:
            table.add_row(
                fmt.upper(),
                self.storage_bytes[fmt] / 2**20,
                self.time_s(fmt, pmax),
                self.power_w(fmt, pmax),
                self.energy_per_sweep_j(fmt, pmax),
                self.ep(fmt, pmax),
            )
        return table


class SparseEPStudy:
    """Sweep storage schemes and thread counts for one sparsity pattern."""

    def __init__(
        self,
        machine: MachineSpec,
        pattern: COOMatrix,
        formats: Sequence[str] = FORMATS,
        threads: Sequence[int] = (1, 2, 3, 4),
        repeats: int = 8,
        block_size: int = 4,
        verify: bool = True,
        engine: Engine | None = None,
        kernel: str = "spmv",
        k: int = 8,
    ):
        self.machine = machine
        self.pattern = pattern
        self.formats = list(require_nonempty(list(formats), "formats"))
        self.threads = list(require_nonempty(list(threads), "threads"))
        require_positive(repeats, "repeats")
        require_positive(k, "k")
        if kernel not in ("spmv", "spmm"):
            raise ConfigurationError(
                f"kernel must be 'spmv' or 'spmm', got {kernel!r}"
            )
        self.repeats = repeats
        self.block_size = block_size
        self.verify = verify
        self.engine = engine or Engine(machine)
        self.kernel = kernel
        self.k = k

    def run(self) -> SparseStudyResult:
        with trace.span(
            "sparse.run",
            kernel=self.kernel,
            formats=list(self.formats),
            threads=list(self.threads),
            nnz=self.pattern.nnz,
        ):
            return self._run()

    def _run(self) -> SparseStudyResult:
        matrices = {
            fmt: convert(self.pattern, fmt, self.block_size) for fmt in self.formats
        }
        result = SparseStudyResult(
            machine=self.machine,
            formats=self.formats,
            threads=self.threads,
            repeats=self.repeats,
            nnz=self.pattern.nnz,
            storage_bytes={f: m.storage_bytes() for f, m in matrices.items()},
        )
        for fmt, matrix in matrices.items():
            for p in self.threads:
                with trace.span(
                    "cell", fmt=fmt, threads=p, kernel=self.kernel
                ):
                    if self.kernel == "spmm":
                        from .spmm import build_spmm_graph

                        build = build_spmm_graph(
                            matrix, self.machine, p, k=self.k,
                            repeats=self.repeats, execute=self.verify,
                        )
                    else:
                        build = build_spmv_graph(
                            matrix, self.machine, p,
                            repeats=self.repeats, execute=self.verify,
                        )
                    meas, schedule = self.engine.simulate(
                        build.graph, p, label=f"{self.kernel}[{fmt},p={p}]"
                    )
                    if self.verify:
                        # The executed graph is the simulated one.
                        replay_numerics(lambda: build, schedule, fmt=fmt, threads=p)
                    result.runs[(fmt, p)] = meas
        return result
