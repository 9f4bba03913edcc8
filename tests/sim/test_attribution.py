"""Per-task energy attribution."""

import pytest

from repro.algorithms import BlockedGemm, CapsStrassen, StrassenWinograd
from repro.runtime.cost import TaskCost
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import TaskGraph
from repro.sim import Engine, attribute_energy, attribution_table
from repro.util.errors import ValidationError


def _run(machine, graph, threads=4):
    schedule = Scheduler(machine, threads).run(graph)
    measurement = Engine(machine).measure(schedule, label="x")
    return schedule, measurement


def test_attribution_conserves_total_energy(machine):
    """Sum of attributed energies equals the engine's wall energy
    (package + DRAM) — nothing lost, nothing double-counted."""
    build = StrassenWinograd(machine).build(512, 4, execute=False)
    schedule, measurement = _run(machine, build.graph)
    groups = attribute_energy(schedule, build.graph, machine)
    attributed = sum(g.total_j for g in groups.values())
    assert attributed == pytest.approx(measurement.total_energy_j, rel=1e-9)


def test_strassen_communication_share(machine):
    """The pre/post additions carry a visible share of the energy —
    Strassen's 'communication' made quantitative."""
    build = StrassenWinograd(machine).build(1024, 4, execute=False)
    schedule, _ = _run(machine, build.graph)
    groups = attribute_energy(schedule, build.graph, machine)
    total = sum(g.total_j for g in groups.values())
    comm = groups["pre"].total_j + groups["post"].total_j
    assert 0.1 < comm / total < 0.5
    assert groups["grain"].total_j > comm  # multiplies still dominate


def test_blocked_gemm_single_group(machine):
    build = BlockedGemm(machine).build(512, 4, execute=False)
    schedule, _ = _run(machine, build.graph)
    groups = attribute_energy(schedule, build.graph, machine)
    assert set(groups) == {"tile"}
    assert groups["tile"].tasks == len(
        [t for t in build.graph if not t.cost.is_zero]
    )


def test_caps_pack_energy_visible(machine):
    build = CapsStrassen(machine).build(512, 4, execute=False)
    schedule, _ = _run(machine, build.graph)
    groups = attribute_energy(schedule, build.graph, machine)
    pack = sum(g.total_j for p, g in groups.items() if p.startswith("bfs-pack"))
    assert pack > 0
    assert groups["leaf"].total_j > pack  # packing is a small tax


def test_joins_excluded(machine):
    g = TaskGraph()
    a = g.add("work", TaskCost(flops=1e9))
    g.join("sync", [a])
    schedule, _ = _run(machine, g, threads=1)
    groups = attribute_energy(schedule, g, machine)
    assert set(groups) == {"work"}


def test_table_sorted_by_energy(machine):
    build = StrassenWinograd(machine).build(512, 4, execute=False)
    schedule, _ = _run(machine, build.graph)
    table = attribution_table(attribute_energy(schedule, build.graph, machine))
    totals = [float(row[5]) for row in table.rows]
    assert totals == sorted(totals, reverse=True)
    assert table.rows[0][0] == "grain"


def test_empty_attribution_rejected():
    with pytest.raises(ValidationError):
        attribution_table({})
