"""Measurement-noise model."""

import numpy as np
import pytest

from repro.power.planes import Plane
from repro.runtime.cost import TaskCost
from repro.runtime.openmp import OpenMP
from repro.sim import Engine, NoiseModel, NoisyEngine


def graph():
    omp = OpenMP("graph")
    omp.task("t", TaskCost(flops=5e9, efficiency=0.8, bytes_dram=5e7))
    return omp.graph


def exact(machine):
    return Engine(machine).run(graph(), threads=1)


def test_noise_changes_values_slightly(machine):
    base = exact(machine)
    noisy = NoiseModel().perturb(base, np.random.default_rng(1))
    assert noisy.energy.package != base.energy.package
    assert noisy.energy.package == pytest.approx(base.energy.package, rel=0.05)
    assert noisy.elapsed_s == pytest.approx(base.elapsed_s, rel=0.05)


def test_noise_preserves_invariants(machine):
    base = exact(machine)
    rng = np.random.default_rng(2)
    for _ in range(20):
        noisy = NoiseModel().perturb(base, rng)
        assert noisy.energy.pp0 <= noisy.energy.package
        assert noisy.energy.package >= 0
        # Trace integral still matches the reported energies.
        assert noisy.trace.energy(Plane.PACKAGE) == pytest.approx(
            noisy.energy.package, rel=1e-9
        )
        assert noisy.trace.duration == pytest.approx(noisy.elapsed_s, rel=1e-9)


def test_zero_noise_is_identity(machine):
    base = exact(machine)
    silent = NoiseModel(energy_jitter=0.0, drift_w=0.0, time_jitter=0.0)
    noisy = silent.perturb(base, np.random.default_rng(3))
    assert noisy.energy.package == pytest.approx(base.energy.package)
    assert noisy.elapsed_s == base.elapsed_s


def test_noisy_engine_reproducible_from_seed(machine):
    a = NoisyEngine(Engine(machine), seed=7).run(graph(), 1)
    b = NoisyEngine(Engine(machine), seed=7).run(graph(), 1)
    assert a.energy.package == b.energy.package
    assert a.elapsed_s == b.elapsed_s


def test_noisy_engine_varies_across_runs(machine):
    eng = NoisyEngine(Engine(machine), seed=9)
    a = eng.run(graph(), 1)
    b = eng.run(graph(), 1)
    assert a.energy.package != b.energy.package


def test_noise_unbiased_on_average(machine):
    base = exact(machine)
    rng = np.random.default_rng(11)
    samples = [NoiseModel().perturb(base, rng).energy.package for _ in range(300)]
    assert np.mean(samples) == pytest.approx(base.energy.package, rel=0.01)


def test_validation():
    with pytest.raises(Exception):
        NoiseModel(energy_jitter=-0.1)


def test_noisy_engine_drives_a_full_study(machine):
    """The study driver accepts a NoisyEngine: realistic spread without
    touching the driver (duck-typed engine)."""
    from repro.api import RunOptions, Study

    study = Study(machine, sizes=(128,), threads=(1, 2), execute_max_n=0, verify=False)
    exact = study.run().result
    noisy = study.run(
        RunOptions(engine=NoisyEngine(Engine(machine), seed=3))
    ).result
    for key in exact.runs:
        e, n = exact.runs[key], noisy.runs[key]
        assert n.elapsed_s != e.elapsed_s  # perturbed...
        assert n.elapsed_s == pytest.approx(e.elapsed_s, rel=0.05)  # ...slightly
    # Derived tables stay within a percent of the exact study.
    assert noisy.avg_slowdown("strassen") == pytest.approx(
        exact.avg_slowdown("strassen"), rel=0.02
    )
