"""Golden digests of event-kernel schedules.

``reference_golden.json`` maps each case to a sha256 over a schedule's
task records, activity intervals and stats (every float as
``float.hex``), or over the floats a report derives from such
schedules.  The cases cover generated DAGs under all four policies
(tied tasks with creator links included), the sparse kernels' and block
LU's builds at small sizes for p in {1, 3}, the ``mixed_ep`` report and
the Strassen n=256 energy attribution.

``reference`` is the scalar spec of the event sweep, and ``fast`` and
``compiled`` are optimised transcriptions of it, so every kernel must
reproduce every digest bit for bit.

Regenerate (only after a deliberate change to the kernels' numbers)::

    PYTHONPATH=src python tests/runtime/test_reference_golden.py
"""

import hashlib
import json
from dataclasses import astuple
from pathlib import Path

import pytest

from repro.algorithms.mixed import BlockLU, mixed_ep
from repro.algorithms.strassen import StrassenWinograd
from repro.machine.specs import haswell_e3_1225
from repro.runtime.compiledpath import compiled_available
from repro.runtime.scheduler import Scheduler
from repro.sim import Engine, attribute_energy, attribution_table
from repro.sparse.generators import banded
from repro.sparse.spgemm import build_spgemm_graph
from repro.sparse.spmm import build_spmm_graph
from repro.sparse.spmv import build_spmv_graph
from repro.sparse.study import convert
from repro.testing.generators import gen_graph_case

GOLDEN = Path(__file__).with_name("reference_golden.json")
POLICIES = ("fifo", "lifo", "critical", "steal")
GRAPH_SEEDS = range(12)
THREADS = (1, 3)


def _hex(value) -> str:
    return value if isinstance(value, str) else float(value).hex()


def _sha(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update("|".join(_hex(v) for v in row).encode())
        h.update(b"\n")
    return h.hexdigest()


def schedule_digest(schedule) -> str:
    """sha256 over *schedule*'s records, intervals and stats."""
    rows = [(r.name, r.tid, r.core, r.start, r.end) for r in schedule.records]
    rows.append(("intervals",))
    rows.extend(schedule.interval_columns().tolist())
    rows.append(("stats",))
    rows.append(astuple(schedule.stats))
    return _sha(rows)


def _sparse_builds(machine, p):
    pattern = banded(48, 2, seed=1)
    csr = convert(pattern, "csr")
    yield "spmv", build_spmv_graph(csr, machine, p, repeats=3, execute=False)
    yield "spmm", build_spmm_graph(csr, machine, p, k=4, repeats=2, execute=False)
    yield "spgemm", build_spgemm_graph(csr, csr, machine, p, execute=False)
    yield "block-lu", BlockLU(machine, block=32).build(128, p, execute=False)


def engine_digests(engine: str) -> dict[str, str]:
    """Case name -> digest of its schedule (or report) on *engine*."""
    out = {}
    for seed in GRAPH_SEEDS:
        case = gen_graph_case(seed)
        arena = case.graph.to_arena()
        for policy in POLICIES:
            sched = Scheduler(case.machine, case.threads, policy, engine=engine)
            out[f"graph/{seed}/{policy}"] = schedule_digest(sched.run(arena))

    machine = haswell_e3_1225()
    for p in THREADS:
        for name, build in _sparse_builds(machine, p):
            for policy in POLICIES:
                sched = Scheduler(machine, p, policy, engine=engine)
                out[f"{name}/p={p}/{policy}"] = schedule_digest(sched.run(build.graph))

    sim = Engine(machine, engine=engine)
    report = mixed_ep(BlockLU(machine, block=32), 128, 3, engine=sim)
    floats = [report.ep_t, report.sequential_fraction]
    for m in (report.sequential, report.parallel):
        floats += [m.elapsed_s, *astuple(m.energy)]
    out["mixed_ep"] = _sha([floats])

    arena = StrassenWinograd(machine).build_arena(256, 4).graph
    _, schedule = sim.simulate(arena, 4)
    groups = attribute_energy(schedule, arena, machine)
    rows = [astuple(groups[k]) for k in sorted(groups)]
    rows.append((attribution_table(groups).to_ascii(),))
    out["attribution/strassen/256"] = _sha(rows)
    return out


def _moved(engine: str) -> list[str]:
    golden = json.loads(GOLDEN.read_text())
    got = engine_digests(engine)
    return sorted(c for c in got.keys() | golden.keys() if got.get(c) != golden.get(c))


def test_reference_schedules_match_the_golden():
    assert not _moved("reference"), "reference digests moved"


@pytest.mark.parametrize("engine", ["fast", "compiled"])
def test_optimised_kernels_match_the_golden(engine):
    if engine == "compiled" and not compiled_available()[0]:
        pytest.skip("compiled engine unavailable")
    moved = _moved(engine)
    assert not moved, f"{engine} digests moved for {moved}"


def test_generated_cases_include_tied_tasks_with_creators():
    tied = 0
    for seed in GRAPH_SEEDS:
        graph = gen_graph_case(seed).graph
        tied += sum(
            1 for t in graph.tasks if not t.untied and t.created_by is not None
        )
    assert tied > 0


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(engine_digests("reference"), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
