"""Measurement-noise model.

Real RAPL readings jitter: the counters are quantized, the sampling
loop beats against the workload, and package temperature drifts the
static power.  The simulator is deterministic, so repetition statistics
(the paper averages its runs) would otherwise be degenerate.  This
module adds a *seeded, reproducible* noise layer:

* multiplicative Gaussian jitter on each plane's energy (sampling/
  integration error),
* an additive static-power drift term (thermal state), drawn once per
  run,

applied by :class:`NoisyEngine` on top of the exact measurement.  The
default magnitudes are small (sub-percent), matching the run-to-run
spread RAPL tooling reports on steady workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..machine.energy import PlaneEnergy
from ..power.planes import Plane
from ..power.sampling import PowerTrace
from ..sim.engine import Engine
from ..sim.measurement import RunMeasurement
from ..util.validation import require_nonnegative

__all__ = ["NoiseModel", "NoisyEngine"]


@dataclass(frozen=True)
class NoiseModel:
    """Magnitudes of the measurement-noise terms.

    Attributes
    ----------
    energy_jitter:
        Relative sigma of the per-plane multiplicative jitter.
    drift_w:
        Sigma (watts) of the per-run static-power drift.
    time_jitter:
        Relative sigma of the wall-clock stretch (OS noise, timer
        granularity).  Stretching time rescales the trace's watts so
        every energy integral is preserved exactly.
    """

    energy_jitter: float = 0.004
    drift_w: float = 0.15
    time_jitter: float = 0.003

    def __post_init__(self) -> None:
        require_nonnegative(self.energy_jitter, "energy_jitter")
        require_nonnegative(self.drift_w, "drift_w")
        require_nonnegative(self.time_jitter, "time_jitter")

    def perturb(
        self, measurement: RunMeasurement, rng: np.random.Generator
    ) -> RunMeasurement:
        """A noisy copy of *measurement* (never negative energies)."""
        # Wall-clock stretch first: time scales, energies stay put.
        stretch = max(0.5, rng.normal(1.0, self.time_jitter))
        elapsed_s = measurement.elapsed_s * stretch
        trace = measurement.trace
        starts, ends = trace.starts * stretch, trace.ends * stretch
        watts = {p: w / stretch for p, w in trace.watts.items()}
        jitter = rng.normal(1.0, self.energy_jitter, size=3)
        drift = rng.normal(0.0, self.drift_w) * elapsed_s
        package = max(0.0, measurement.energy.package * jitter[0] + drift)
        pp0 = min(package, max(0.0, measurement.energy.pp0 * jitter[1]))
        dram = max(0.0, measurement.energy.dram * jitter[2])
        energy = PlaneEnergy(package, pp0, dram)

        # Rescale the trace so its integral still matches the energies.
        scale = {
            Plane.PACKAGE: package / measurement.energy.package
            if measurement.energy.package
            else 1.0,
            Plane.PP0: pp0 / measurement.energy.pp0 if measurement.energy.pp0 else 1.0,
            Plane.DRAM: dram / measurement.energy.dram
            if measurement.energy.dram
            else 1.0,
        }
        trace = PowerTrace.from_columns(
            starts, ends, {p: w * scale.get(p, 1.0) for p, w in watts.items()}
        )
        return replace(measurement, elapsed_s=elapsed_s, energy=energy, trace=trace)


class NoisyEngine:
    """An :class:`~repro.sim.engine.Engine` wrapper adding seeded noise.

    Each call to :meth:`run` advances the generator, so repeated runs of
    the same workload produce the run-to-run spread a real testbed
    shows, while the whole sequence stays reproducible from the seed.
    """

    def __init__(
        self,
        engine: Engine,
        noise: NoiseModel = NoiseModel(),
        seed: int = 0,
    ):
        self.engine = engine
        self.noise = noise
        self._rng = np.random.default_rng(seed)

    @property
    def machine(self):
        return self.engine.machine

    def run(self, graph, threads, **kwargs) -> RunMeasurement:
        exact = self.engine.run(graph, threads, **kwargs)
        return self.noise.perturb(exact, self._rng)

    def simulate(self, graph, threads, policy="fifo", label=None):
        """:meth:`Engine.simulate` with the measurement perturbed."""
        exact, schedule = self.engine.simulate(graph, threads, policy, label)
        return self.noise.perturb(exact, self._rng), schedule

    def idle_measurement(self, duration_s: float, label: str = "idle") -> RunMeasurement:
        exact = self.engine.idle_measurement(duration_s, label)
        return self.noise.perturb(exact, self._rng)
