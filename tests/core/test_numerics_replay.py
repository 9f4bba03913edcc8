"""Every study cell simulates its cost-only lowering; numerics are a
replay that never changes a measurement.

A study that checks its numerics therefore runs on the compiled kernel
from end to end (no fallback to ``fast``), and its measurements equal,
pickle for pickle, those of the same study run cost-only — at
non-power-of-two sizes too, where the executed lowerings once carried
an extra ``unpad`` task the arena does not have.
"""

import pickle

import pytest

from repro.algorithms import CapsStrassen, StrassenWinograd
from repro.api import RunOptions, Study
from repro.core.study import StudyConfig
from repro.runtime import compiledpath as cp

requires_cc = pytest.mark.skipif(
    not cp.compiled_available()[0],
    reason=f"compiled engine unavailable: {cp.compiled_available()[1]}",
)

GRID = dict(sizes=(128, 256), threads=(1, 2))


def _pickles(result):
    return {key: pickle.dumps(m) for key, m in result.runs.items()}


@requires_cc
def test_verified_compiled_study_never_falls_back(machine):
    before = cp._COMPILED_FALLBACKS.value
    run = Study(machine, execute_max_n=256, verify=True, **GRID).run(
        RunOptions(engine="compiled", trace=True)
    )
    assert cp._COMPILED_FALLBACKS.value == before
    cells = run.tracer.find("cell")
    assert len(cells) == len(run.result.runs) == 12
    for cell in cells:
        children = list(run.tracer.children(cell))
        layers = [sp.name for sp in children]
        memo = children[layers.index("numerics")].attrs["memo"]
        # A memoized report opens no verify span.
        tail = ["simulate", "numerics"] + (["verify"] if memo == "miss" else [])
        assert layers[-len(tail):] == tail, layers
        assert "execute" not in cell.attrs
    schedules = run.tracer.find("schedule")
    assert {sp.attrs["engine"] for sp in schedules} == {"compiled"}

    cost_only = Study(machine, execute_max_n=0, verify=False, **GRID).run(
        RunOptions(engine="compiled")
    )
    assert _pickles(run.result) == _pickles(cost_only.result)


@pytest.mark.parametrize(
    "alg",
    [
        lambda m: StrassenWinograd(m, odd_strategy="pad"),
        lambda m: StrassenWinograd(m, odd_strategy="peel"),
        lambda m: CapsStrassen(m),
    ],
    ids=["strassen-pad", "strassen-peel", "caps"],
)
def test_verified_and_cost_only_cells_agree_at_odd_n(machine, alg):
    alg = alg(machine)
    runs = []
    for execute_max_n, verify in ((1024, True), (0, False)):
        cfg = StudyConfig(
            sizes=(500,), threads=(2,), execute_max_n=execute_max_n,
            verify=verify, baseline=alg.name,
        )
        result = Study(machine, algorithms=[alg], config=cfg).run().result
        runs.append(result.runs[(alg.name, 500, 2)])
    verified, cost_only = runs
    assert pickle.dumps(verified) == pickle.dumps(cost_only)
    assert verified.stats.task_count == len(alg.build_cached(500, 2).graph)


def test_verified_study_leaves_the_testing_package_unloaded():
    """The oracles live under ``repro.testing``, the object task graph
    included; no product path loads them: not the numerics a verified
    study runs (the depth-first order included), not a verified sparse
    study or ``mixed_ep`` (both built with the OpenMP region builder),
    and not the scalar ``reference`` kernel."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    probe = (
        "import sys\n"
        "from repro.algorithms.base import numerics_memo\n"
        "from repro.api import Study\n"
        "Study(sizes=(128,), threads=(1, 2), execute_max_n=128).run()\n"
        "assert len(numerics_memo()) > 0, 'no cell ran its numerics'\n"
        "from repro.algorithms import BlockLU, StrassenWinograd, mixed_ep\n"
        "from repro.machine import haswell_e3_1225\n"
        "from repro.runtime.scheduler import Scheduler\n"
        "from repro.sim import Engine\n"
        "from repro.sparse import SparseEPStudy, banded\n"
        "m = haswell_e3_1225()\n"
        "SparseEPStudy(m, banded(64, 2, seed=1), threads=(1, 2), repeats=2).run()\n"
        "mixed_ep(BlockLU(m, block=32), 64, 2, engine=Engine(m, engine='reference'))\n"
        "arena = StrassenWinograd(m).build_arena(128, 2).graph\n"
        "for policy in ('fifo', 'critical', 'steal'):\n"
        "    Scheduler(m, 2, policy, engine='reference').run(arena)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.testing')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
