"""Serialization of study results: markdown, CSV and JSON-able dicts.

Used by the examples to write EXPERIMENTS-style records and by users
who want to post-process study output with external tooling.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from ..core.ep import eavg, ep_ratio
from ..core.report import table2_slowdown, table3_power, table4_ep
from ..core.scaling import ep_scaling
from ..core.study import StudyResult
from ..power.planes import Plane
from ..util.errors import ValidationError

__all__ = [
    "FrozenStudy",
    "load_study_json",
    "study_to_dict",
    "study_to_markdown",
    "write_study_csv",
    "write_study_json",
]


def study_to_dict(study: StudyResult) -> dict:
    """A plain-dict dump of every run's observables plus the derived
    tables — everything needed to regenerate the paper's evaluation."""
    runs = []
    for (alg, n, p), meas in sorted(study.runs.items()):
        runs.append(
            {
                "algorithm": alg,
                "n": n,
                "threads": p,
                "elapsed_s": meas.elapsed_s,
                "package_j": meas.energy.package,
                "pp0_j": meas.energy.pp0,
                "dram_j": meas.energy.dram,
                "avg_package_w": meas.avg_power_w(),
                "peak_package_w": meas.peak_power_w(),
                "gflops": meas.gflops,
                "utilization": meas.stats.utilization,
            }
        )
    return {
        "machine": study.machine.name,
        "sizes": list(study.config.sizes),
        "threads": list(study.config.threads),
        "baseline": study.config.baseline,
        "plane": study.config.plane.value,
        "convention": study.config.convention,
        "runs": runs,
        "table2_avg_slowdown": {
            alg: study.avg_slowdown(alg)
            for alg in study.algorithm_names
            if alg != study.config.baseline
        },
        "table3_avg_power_w": {
            alg: study.avg_power_w(alg) for alg in study.algorithm_names
        },
        "table4_avg_ep": {alg: study.avg_ep(alg) for alg in study.algorithm_names},
    }


def study_to_markdown(study: StudyResult) -> str:
    """The three paper tables as one markdown document."""
    parts = [
        "## Table II — average slowdown vs baseline",
        table2_slowdown(study).to_markdown(),
        "",
        "## Table III — average package watts by thread count",
        table3_power(study).to_markdown(),
        "",
        "## Table IV — average energy performance by problem size",
        table4_ep(study).to_markdown(),
    ]
    return "\n".join(parts)


def write_study_csv(study: StudyResult, path: str | Path) -> Path:
    """Write the raw per-run observables as CSV; returns the path."""
    path = Path(path)
    data = study_to_dict(study)["runs"]
    if not data:
        raise ValidationError("study has no runs to write")
    header = list(data[0].keys())
    lines = [",".join(header)]
    for row in data:
        lines.append(",".join(str(row[k]) for k in header))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_study_json(study: StudyResult, path: str | Path) -> Path:
    """Write the full study dump as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(study_to_dict(study), indent=2) + "\n")
    return path


class FrozenStudy:
    """Read-only view over a persisted study dump.

    Reconstructed from :func:`study_to_dict` output (or a JSON file via
    :func:`load_study_json`), it answers the same table-level questions
    as a live :class:`~repro.core.study.StudyResult` — slowdowns, power
    rows, EP values, scaling — without re-simulating anything.  Useful
    for comparing runs across code versions or sharing results.

    Power and EP are rebuilt from each run's dumped plane joules and
    ``elapsed_s`` under the dump's ``plane`` and ``convention``, through
    :mod:`repro.core.ep`, so they equal the live study's.  A dump
    without those keys (written before they were recorded) reads as the
    paper's definition, package watts over seconds, and
    ``definition_recorded`` is ``False``.
    """

    def __init__(self, data: dict):
        required = {"machine", "sizes", "threads", "baseline", "runs"}
        missing = required - set(data)
        if missing:
            raise ValidationError(f"study dump missing keys: {sorted(missing)}")
        self.machine_name = data["machine"]
        self.sizes = [int(n) for n in data["sizes"]]
        self.threads = [int(p) for p in data["threads"]]
        self.baseline = data["baseline"]
        self.definition_recorded = "plane" in data and "convention" in data
        self.plane = Plane(data.get("plane", Plane.PACKAGE.value))
        self.convention = data.get("convention", "power")
        self._joules_key = f"{self.plane.value.lower()}_j"
        self._runs = {
            (r["algorithm"], int(r["n"]), int(r["threads"])): r
            for r in data["runs"]
        }
        self.algorithm_names = sorted({key[0] for key in self._runs})

    def _run(self, alg: str, n: int, threads: int) -> dict:
        key = (alg, n, threads)
        if key not in self._runs:
            raise ValidationError(f"no run recorded for {key}")
        return self._runs[key]

    def time_s(self, alg: str, n: int, threads: int) -> float:
        return float(self._run(alg, n, threads)["elapsed_s"])

    def _joules(self, alg: str, n: int, threads: int) -> float:
        run = self._run(alg, n, threads)
        if self._joules_key not in run:
            raise ValidationError(f"dump records no {self.plane.value} joules")
        return float(run[self._joules_key])

    def power_w(self, alg: str, n: int, threads: int) -> float:
        """Average watts on the study's plane."""
        return eavg(self._joules(alg, n, threads), self.time_s(alg, n, threads), "power")

    def ep(self, alg: str, n: int, threads: int) -> float:
        """Eq. 1 under the study's plane and convention."""
        time_s = self.time_s(alg, n, threads)
        return ep_ratio(
            eavg(self._joules(alg, n, threads), time_s, self.convention), time_s
        )

    def slowdown(self, alg: str, n: int, threads: int) -> float:
        return self.time_s(alg, n, threads) / self.time_s(self.baseline, n, threads)

    def avg_slowdown(self, alg: str) -> float:
        cells = [
            self.slowdown(alg, n, p) for n in self.sizes for p in self.threads
        ]
        return sum(cells) / len(cells)

    def scaling_s(self, alg: str, n: int) -> list[tuple[int, float]]:
        """Eq. 5 over the thread sweep (needs a 1-thread run)."""
        ep1 = self.ep(alg, n, 1)
        return [(p, ep_scaling(self.ep(alg, n, p), ep1)) for p in sorted(self.threads)]


def load_study_json(path: str | Path) -> FrozenStudy:
    """Load a study previously saved with :func:`write_study_json`."""
    path = Path(path)
    return FrozenStudy(json.loads(path.read_text()))
