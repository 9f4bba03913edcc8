"""Model-term ablations: every energy coefficient must matter.

Calibration can hide dead code — a term could be mis-wired and the fit
would just absorb it.  These tests zero/inflate individual coefficients
and require the observable the term is responsible for to move in the
predicted direction.
"""

import pytest

from repro.algorithms import BlockedGemm, StrassenWinograd
from repro.machine import haswell_e3_1225
from repro.machine.energy import EnergyModel
from repro.sim import Engine


def measure(machine, alg_cls=BlockedGemm, n=512, threads=4, **alg_kw):
    alg = alg_cls(machine, **alg_kw)
    build = alg.build(n, threads, execute=False)
    return Engine(machine).run(build.graph, threads)


@pytest.fixture(scope="module")
def base():
    return haswell_e3_1225()


def _with(base, **kw):
    return base.with_energy(base.energy.replace(**kw))


def test_static_power_sets_the_idle_floor(base):
    hot = measure(_with(base, package_static_w=30.0))
    cold = measure(_with(base, package_static_w=1.0))
    assert hot.avg_power_w() - cold.avg_power_w() == pytest.approx(29.0, rel=0.01)
    assert hot.elapsed_s == cold.elapsed_s  # energy model never affects time


def test_flop_price_hits_compute_dense_kernels_hardest(base):
    cheap = base
    pricey = _with(base, j_per_flop=base.energy.j_per_flop * 2)
    delta_blocked = (
        measure(pricey).avg_power_w() - measure(cheap).avg_power_w()
    )
    delta_strassen = (
        measure(pricey, StrassenWinograd).avg_power_w()
        - measure(cheap, StrassenWinograd).avg_power_w()
    )
    assert delta_blocked > delta_strassen > 0


def test_uncore_price_hits_streaming_kernels_hardest(base):
    pricey = _with(base, uncore_j_per_dram_byte=base.energy.uncore_j_per_dram_byte * 3)
    delta_blocked = (
        measure(pricey).avg_power_w() - measure(base).avg_power_w()
    )
    delta_strassen = (
        measure(pricey, StrassenWinograd).avg_power_w()
        - measure(base, StrassenWinograd).avg_power_w()
    )
    assert delta_strassen > delta_blocked >= 0


def test_core_active_power_scales_with_occupancy(base):
    pricey = _with(base, core_active_w=base.energy.core_active_w + 2.0)
    one = measure(pricey, threads=1).avg_power_w() - measure(base, threads=1).avg_power_w()
    four = measure(pricey, threads=4).avg_power_w() - measure(base, threads=4).avg_power_w()
    # Four busy cores pick up ~4x the extra per-core power.
    assert four == pytest.approx(4 * one, rel=0.1)


def test_dram_plane_isolated_from_package(base):
    pricey = _with(base, dram_j_per_byte=base.energy.dram_j_per_byte * 10)
    a, b = measure(base), measure(pricey)
    assert b.energy.dram > a.energy.dram
    assert b.energy.package == pytest.approx(a.energy.package, rel=1e-9)


def test_zeroing_everything_leaves_zero_power(base):
    silent = base.with_energy(
        EnergyModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    )
    meas = measure(silent)
    assert meas.energy.package == 0.0
    assert meas.energy.dram == 0.0
    assert meas.elapsed_s > 0  # time untouched


def test_ablated_model_breaks_the_papers_ordering(base):
    """Kill the uncore term and Strassen's power advantage at 4 threads
    collapses — the ordering is carried by the traffic pricing, not
    baked in elsewhere."""
    no_uncore = _with(base, uncore_j_per_dram_byte=0.0, dram_static_w=0.0)
    gap_full = measure(base).avg_power_w() - measure(
        base, StrassenWinograd
    ).avg_power_w()
    gap_ablated = measure(no_uncore).avg_power_w() - measure(
        no_uncore, StrassenWinograd
    ).avg_power_w()
    assert gap_ablated > gap_full  # Strassen loses its uncore "credit"
