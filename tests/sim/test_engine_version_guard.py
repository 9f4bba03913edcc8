"""Guard for :data:`repro.sim.engine.ENGINE_VERSION`.

The result store keys every cell — served by ``repro serve`` or resumed
by a checkpointed study — by ``ENGINE_VERSION``, which is bumped by
hand.  A change to simulated numbers without a bump would serve stale
results from every existing store.  ``engine_golden.json`` records, for
the version it was made under, a digest of each cell of two cost-only
studies on the platform's default engine: a small one (paper
algorithms, sizes 128 and 256, threads 1 and 2: the session's
``small_result``) and the paper's 48-cell matrix (``paper_result``).
A digest covers the cell's ``elapsed_s``, plane energies and
power-trace segments.  The test fails when any digest moves while the
version stays put.

After a deliberate semantics change, bump ``ENGINE_VERSION`` and
regenerate the golden file::

    PYTHONPATH=src python tests/sim/test_engine_version_guard.py
"""

import hashlib
import json
from pathlib import Path

from repro.api import Study
from repro.core.study import PAPER_SIZES, PAPER_THREADS
from repro.machine.specs import haswell_e3_1225
from repro.sim.engine import ENGINE_VERSION

GOLDEN = Path(__file__).with_name("engine_golden.json")
SIZES = (128, 256)
THREADS = (1, 2)


def cost_only_runs(sizes, threads) -> dict:
    """The cells of a cost-only study on the default engine."""
    study = Study(
        haswell_e3_1225(), sizes=sizes, threads=threads,
        execute_max_n=0, verify=False,
    )
    return study.run().result.runs


def cell_digests(runs: dict) -> dict[str, str]:
    """``"alg/n/threads"`` -> sha256 of each cell's simulated outputs."""
    digests = {}
    for (alg, n, p), m in runs.items():
        e = m.energy
        h = hashlib.sha256(repr((m.elapsed_s, e.package, e.pp0, e.dram)).encode())
        for seg in m.trace.segments:
            watts = sorted((plane.name, w) for plane, w in seg.watts.items())
            h.update(repr((seg.t_start, seg.t_end, watts)).encode())
        digests[f"{alg}/{n}/{p}"] = h.hexdigest()
    return digests


def stale_cells(golden: dict, digests: dict[str, str], version: int) -> list[str]:
    """Cells whose digest moved although *version* equals the golden's."""
    if golden["engine_version"] != version:
        return []
    return sorted(c for c in digests.keys() | golden["cells"].keys()
                  if digests.get(c) != golden["cells"].get(c))


def test_simulated_numbers_change_only_with_engine_version(
    small_result, paper_result
):
    golden = json.loads(GOLDEN.read_text())
    digests = cell_digests({**small_result.runs, **paper_result.runs})
    stale = stale_cells(golden, digests, ENGINE_VERSION)
    assert not stale, (
        f"simulated outputs changed for {stale} but ENGINE_VERSION is still "
        f"{ENGINE_VERSION}: bump it in src/repro/sim/engine.py so stores stop "
        f"serving the old numbers, then regenerate {GOLDEN.name} (see the "
        f"module docstring)"
    )
    assert golden["engine_version"] == ENGINE_VERSION, (
        f"ENGINE_VERSION is {ENGINE_VERSION} but {GOLDEN.name} was made "
        f"under {golden['engine_version']}: regenerate it (see the module "
        f"docstring) so the guard covers the new version"
    )


def test_guard_flags_a_moved_cell_under_the_same_version():
    golden = {"engine_version": 3, "cells": {"a/1/1": "x", "b/1/1": "y"}}
    moved = {"a/1/1": "x", "b/1/1": "z"}
    assert stale_cells(golden, moved, 3) == ["b/1/1"]
    assert stale_cells(golden, moved, 4) == []
    assert stale_cells(golden, {"a/1/1": "x"}, 3) == ["b/1/1"]


if __name__ == "__main__":
    runs = {
        **cost_only_runs(SIZES, THREADS),
        **cost_only_runs(PAPER_SIZES, PAPER_THREADS),
    }
    GOLDEN.write_text(
        json.dumps(
            {"engine_version": ENGINE_VERSION, "cells": cell_digests(runs)},
            indent=2, sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN} for ENGINE_VERSION {ENGINE_VERSION}")
