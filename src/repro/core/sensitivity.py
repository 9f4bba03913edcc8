"""Platform sensitivity: how the paper's conclusions move with hardware.

The paper closes by asking how its findings generalize ("continue the
evaluation on larger platforms and for larger problem sizes", §VIII).
This module sweeps machine parameters — memory channels, LLC capacity,
core count — re-runs the EP study on each variant, and reports how the
headline quantities (Strassen-family slowdown, OpenBLAS scaling class,
crossover reachability) respond.

The central finding it surfaces: the paper's shapes are creatures of
its *single-channel* platform.  Add channels and the Strassen family
starts scaling (its slowdown and its EP-scaling gap both shrink), while
the Eq. 9 crossover drops into feasible range.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from ..machine.specs import MachineSpec
from ..util.errors import ValidationError
from ..util.tables import TextTable
from ..util.validation import require_nonempty
from .crossover import analyze_crossover
from .study import Study

__all__ = ["SensitivityPoint", "channel_sweep", "sensitivity_table"]


@dataclass(frozen=True)
class SensitivityPoint:
    """Headline study quantities on one machine variant."""

    label: str
    machine_name: str
    strassen_slowdown: float
    caps_slowdown: float
    openblas_s4: float  # EP scaling at the top thread count
    strassen_s4: float
    caps_s4: float
    crossover_reachable: bool


def _headlines(
    label: str, machine: MachineSpec, sizes: Sequence[int], threads: Sequence[int]
) -> SensitivityPoint:
    result = Study(
        machine, sizes=sizes, threads=threads, execute_max_n=0, verify=False
    ).run().result
    n = max(sizes)
    pmax = max(threads)
    return SensitivityPoint(
        label=label,
        machine_name=machine.name,
        strassen_slowdown=result.avg_slowdown("strassen"),
        caps_slowdown=result.avg_slowdown("caps"),
        openblas_s4=result.scaling_curve("openblas", n)[-1].s,
        strassen_s4=result.scaling_curve("strassen", n)[-1].s,
        caps_s4=result.scaling_curve("caps", n)[-1].s,
        crossover_reachable=analyze_crossover(machine).reachable,
    )


def channel_sweep(
    base: MachineSpec,
    channels: Sequence[int] = (1, 2, 4),
    sizes: Sequence[int] = (512, 1024),
    threads: Sequence[int] = (1, 2, 4),
    capacity_factor: int = 1,
) -> list[SensitivityPoint]:
    """Re-run the study with the memory system widened.

    *capacity_factor* optionally scales capacity along with the
    channels (pass >1 when sweeping sizes beyond the base platform's
    memory gate; the default leaves capacity untouched so the
    single-channel row is exactly the paper's platform).
    """
    channels = require_nonempty(list(channels), "channels")
    points = []
    for ch in channels:
        dram = replace(
            base.dram,
            channels=ch,
            capacity_bytes=base.dram.capacity_bytes * capacity_factor,
        )
        variant = replace(base, name=f"{base.name}[{ch}ch]", dram=dram)
        points.append(_headlines(f"{ch} channel(s)", variant, sizes, threads))
    return points


def sensitivity_table(points: Sequence[SensitivityPoint]) -> TextTable:
    """Render a sweep as the summary table the benchmarks record."""
    if not points:
        raise ValidationError("no sensitivity points to tabulate")
    table = TextTable(
        [
            "variant",
            "Strassen slowdown",
            "CAPS slowdown",
            "S4 OpenBLAS",
            "S4 Strassen",
            "S4 CAPS",
            "Eq.9 reachable",
        ],
        ndigits=3,
    )
    for p in points:
        table.add_row(
            p.label,
            p.strassen_slowdown,
            p.caps_slowdown,
            p.openblas_s4,
            p.strassen_s4,
            p.caps_s4,
            str(p.crossover_reachable),
        )
    return table
