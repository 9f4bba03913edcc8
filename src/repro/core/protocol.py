"""The paper's experimental protocol, as a reusable driver.

§VI-A: "Each test was executed independently using the same driver
routine with identical memory allocation schemas.  Tests were
instantiated using a runtime script with a sleep period of 60 seconds
between each test in order to quiesce the system power."

:class:`ExperimentProtocol` reproduces that discipline over the
simulator: per configuration it simulates the quiesce idle (feeding the
MSR stream, so a PAPI watcher sees the same counter history the paper's
rig produced), runs *repetitions* noisy trials, and reports mean/std/
min/max statistics per quantity — the repetition statistics a real
measurement campaign needs and a deterministic simulator otherwise
cannot produce (see :mod:`repro.sim.noise`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ..algorithms.base import MatmulAlgorithm
from ..machine.specs import MachineSpec
from ..sim.engine import Engine
from ..sim.measurement import RunMeasurement
from ..sim.noise import NoiseModel, NoisyEngine
from ..util.errors import ValidationError
from ..util.tables import TextTable
from ..util.validation import require_nonempty, require_nonnegative, require_positive

__all__ = ["TrialStats", "ProtocolResult", "ExperimentProtocol"]


@dataclass(frozen=True)
class TrialStats:
    """Mean/std/min/max over one configuration's repetitions."""

    mean: float
    std: float
    minimum: float
    maximum: float
    n: int

    @staticmethod
    def from_samples(samples: Sequence[float]) -> "TrialStats":
        samples = require_nonempty(list(samples), "samples")
        n = len(samples)
        mean = sum(samples) / n
        var = sum((s - mean) ** 2 for s in samples) / n
        return TrialStats(mean, math.sqrt(var), min(samples), max(samples), n)

    @property
    def relative_spread(self) -> float:
        """std / mean (0 when the mean is zero)."""
        return self.std / self.mean if self.mean else 0.0


@dataclass
class ProtocolResult:
    """Repetition statistics for every (algorithm, n, threads) cell."""

    repetitions: int
    quiesce_s: float
    time_stats: dict[tuple[str, int, int], TrialStats] = field(default_factory=dict)
    power_stats: dict[tuple[str, int, int], TrialStats] = field(default_factory=dict)
    trials: dict[tuple[str, int, int], list[RunMeasurement]] = field(
        default_factory=dict
    )

    def cell(self, alg: str, n: int, threads: int) -> tuple[TrialStats, TrialStats]:
        key = (alg, n, threads)
        if key not in self.time_stats:
            raise ValidationError(f"no trials recorded for {key}")
        return self.time_stats[key], self.power_stats[key]

    def summary_table(self) -> TextTable:
        table = TextTable(
            ["algorithm", "n", "P", "time mean (s)", "time cv", "W mean", "W cv"],
            ndigits=4,
        )
        for (alg, n, p), tstats in sorted(self.time_stats.items()):
            wstats = self.power_stats[(alg, n, p)]
            table.add_row(
                alg, n, p,
                tstats.mean, tstats.relative_spread,
                wstats.mean, wstats.relative_spread,
            )
        return table


class ExperimentProtocol:
    """Runs configurations the way the paper's runtime script did."""

    def __init__(
        self,
        machine: MachineSpec,
        repetitions: int = 5,
        quiesce_s: float = 60.0,
        noise: NoiseModel = NoiseModel(),
        seed: int = 2015,
        msr=None,
    ):
        require_positive(repetitions, "repetitions")
        require_nonnegative(quiesce_s, "quiesce_s")
        self.machine = machine
        self.repetitions = repetitions
        self.quiesce_s = quiesce_s
        self.engine = NoisyEngine(Engine(machine, msr=msr), noise, seed)

    def run(
        self,
        algorithms: Sequence[MatmulAlgorithm],
        sizes: Sequence[int],
        threads: Sequence[int],
        seed: int = 2015,
        execute: bool = False,
    ) -> ProtocolResult:
        """Execute the matrix with quiesce + repetition discipline.

        Every trial simulates the cached cost-only lowering.  With
        *execute*, each configuration also checks its numerics once
        (:meth:`~repro.algorithms.base.MatmulAlgorithm.check_numerics`):
        noise perturbs only the measurements, so every repetition shares
        one schedule.
        """
        algorithms = require_nonempty(list(algorithms), "algorithms")
        sizes = require_nonempty(list(sizes), "sizes")
        threads = require_nonempty(list(threads), "threads")
        result = ProtocolResult(self.repetitions, self.quiesce_s)
        for alg in algorithms:
            for n in sizes:
                for p in threads:
                    trials = []
                    # Repetitions share one lowering: the graph is
                    # immutable under simulation.
                    build = alg.build_cached(n, p, seed=seed)
                    for rep in range(self.repetitions):
                        if self.quiesce_s > 0:
                            self.engine.idle_measurement(
                                self.quiesce_s, label="quiesce"
                            )
                        measurement, schedule = self.engine.simulate(
                            build.graph, p, label=f"{alg.name}[n={n},p={p}]#{rep}"
                        )
                        trials.append(measurement)
                    if execute:
                        alg.check_numerics(n, p, schedule, build.graph, seed=seed)
                    key = (alg.name, n, p)
                    result.trials[key] = trials
                    result.time_stats[key] = TrialStats.from_samples(
                        [t.elapsed_s for t in trials]
                    )
                    result.power_stats[key] = TrialStats.from_samples(
                        [t.avg_power_w() for t in trials]
                    )
        return result
