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
from repro.core.study import EnergyPerformanceStudy, StudyConfig
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
        layers = [sp.name for sp in run.tracer.children(cell)]
        assert layers[-3:] == ["simulate", "numerics", "verify"], layers
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
        result = EnergyPerformanceStudy(machine, [alg], config=cfg).run()
        runs.append(result.runs[(alg.name, 500, 2)])
    verified, cost_only = runs
    assert pickle.dumps(verified) == pickle.dumps(cost_only)
    assert verified.stats.task_count == len(alg.build_cached(500, 2).graph)
