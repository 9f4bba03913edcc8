"""Ablation benches for the design choices DESIGN.md calls out:

* Winograd (15 adds) vs classic Strassen (18 adds);
* CAPS BFS packing on/off (the communication-avoidance trade);
* leaf cutoff sweep (the paper's empirically tuned 64);
* CAPS cutoff depth sweep (the paper's empirically tuned 4);
* DVFS: fixed frequency (paper BIOS setting) vs a throttled P-state.
"""

import pytest
from conftest import write_result

from repro.algorithms import CapsStrassen, StrassenWinograd, tune_parameter
from repro.machine import haswell_e3_1225
from repro.machine.frequency import FrequencyDomain, PState
from repro.sim import Engine
from repro.util.tables import TextTable

N = 512
THREADS = 4


@pytest.fixture(scope="module")
def machine_():
    return haswell_e3_1225()


@pytest.fixture(scope="module")
def engine_(machine_):
    return Engine(machine_)


def _measure(engine, alg, n=N, threads=THREADS):
    build = alg.build(n, threads, execute=False)
    return engine.run(build.graph, threads)


def test_winograd_vs_classic_adds(benchmark, machine_, engine_, results_dir):
    """Winograd's 15 additions beat classic Strassen's 18 on both time
    and energy — addition passes are pure communication."""
    winograd = StrassenWinograd(machine_)
    classic = StrassenWinograd(machine_, classic=True)
    mw = benchmark.pedantic(
        lambda: _measure(engine_, winograd), rounds=1, iterations=1
    )
    mc = _measure(engine_, classic)
    table = TextTable(["variant", "adds/level", "time (s)", "pkg J"], ndigits=5)
    table.add_row("Winograd", 15, mw.elapsed_s, mw.energy.package)
    table.add_row("classic", 18, mc.elapsed_s, mc.energy.package)
    write_result(results_dir, "ablation_winograd_vs_classic", table.to_ascii())

    assert mw.elapsed_s < mc.elapsed_s
    assert mw.energy.package < mc.energy.package


def test_caps_packing_tradeoff(benchmark, machine_, engine_, results_dir):
    """Packing costs time but cuts DRAM traffic (and so uncore energy
    per byte of channel traffic) — the Eq. 8 memory-for-communication
    trade in miniature."""
    packed = CapsStrassen(machine_)
    zero_copy = CapsStrassen(machine_, pack=False)
    mp = benchmark.pedantic(lambda: _measure(engine_, packed), rounds=1, iterations=1)
    mz = _measure(engine_, zero_copy)
    table = TextTable(["variant", "time (s)", "DRAM bytes", "pkg J"], ndigits=5)
    table.add_row("packed", mp.elapsed_s, mp.bytes_dram, mp.energy.package)
    table.add_row("zero-copy", mz.elapsed_s, mz.bytes_dram, mz.energy.package)
    write_result(results_dir, "ablation_caps_packing", table.to_ascii())

    assert mp.elapsed_s > mz.elapsed_s  # packing is not free
    assert mp.bytes_dram >= mz.bytes_dram * 0.99


def test_leaf_cutoff_tuning(benchmark, machine_, engine_, results_dir):
    """Reproduce the paper's §IV-B empirical cutoff search: 'the optimal
    point of recursion to revert to the dense solver is when the
    sub-matrix Nth dimension is <= 64'."""

    def objective(cutoff):
        alg = StrassenWinograd(machine_, cutoff=cutoff, grain=cutoff)
        return _measure(engine_, alg).elapsed_s

    best, scores = benchmark.pedantic(
        lambda: tune_parameter([16, 32, 64, 128, 256], objective),
        rounds=1,
        iterations=1,
    )
    table = TextTable(["cutoff", "time (s)"], ndigits=6)
    for cutoff, score in sorted(scores.items()):
        table.add_row(cutoff, score)
    table.add_row("best", float(best))
    write_result(results_dir, "ablation_leaf_cutoff", table.to_ascii())

    # The interior of the sweep wins: tiny leaves drown in addition
    # overhead, huge leaves forfeit the operation-count reduction.
    assert best in (32, 64, 128)


def test_caps_cutoff_depth(benchmark, machine_, engine_, results_dir):
    """Sweep the BFS/DFS switch depth (paper: 4)."""

    def objective(depth):
        alg = CapsStrassen(machine_, cutoff_depth=depth)
        return _measure(engine_, alg, n=1024).elapsed_s

    best, scores = benchmark.pedantic(
        lambda: tune_parameter([0, 1, 2, 4], objective), rounds=1, iterations=1
    )
    table = TextTable(["cutoff depth", "time (s)"], ndigits=6)
    for depth, score in sorted(scores.items()):
        table.add_row(depth, score)
    write_result(results_dir, "ablation_caps_depth", table.to_ascii())

    # Deeper BFS (more task parallelism + locality) never loses on this
    # shared-memory platform; the paper's 4 covers the whole tree here.
    assert scores[4] <= scores[0]


def test_dvfs_energy_time_trade(benchmark, machine_, engine_, results_dir):
    """Fixed nominal frequency (the paper's BIOS choice) vs a throttled
    P-state: throttling cuts power but stretches runtime."""
    from dataclasses import replace

    slow_freq = FrequencyDomain(
        (PState(1.6e9, 0.8), PState(3.2e9, 1.0)), active_index=0, power_saving_enabled=True
    )
    slow_machine = replace(machine_, frequency=slow_freq)
    alg_fast = StrassenWinograd(machine_)
    alg_slow = StrassenWinograd(slow_machine)
    mf = benchmark.pedantic(
        lambda: _measure(engine_, alg_fast), rounds=1, iterations=1
    )
    ms = _measure(Engine(slow_machine), alg_slow)
    table = TextTable(["P-state", "time (s)", "avg W"], ndigits=5)
    table.add_row("3.2 GHz", mf.elapsed_s, mf.avg_power_w())
    table.add_row("1.6 GHz", ms.elapsed_s, ms.avg_power_w())
    write_result(results_dir, "ablation_dvfs", table.to_ascii())

    assert ms.elapsed_s > mf.elapsed_s
    assert ms.avg_power_w() < mf.avg_power_w()
