"""Tracing must observe, never perturb: traced and untraced studies
produce bit-identical results, serially and in parallel, and the
recorded spans account for (essentially all of) the study wall time."""

import pytest

from repro.api import RunOptions, Study
from repro.observability.export import (
    events_to_spans,
    read_trace_json,
    validate_chrome_trace,
)

CFG = dict(sizes=(128, 256), threads=(1, 2), execute_max_n=128)

#: The sweep counters of the fast and compiled kernels: a default run
#: ticks whichever one the platform picked.
SWEEP_COUNTERS = ("engine.sweeps", "engine.compiled_sweeps")


def _fields(m):
    """The floats that must match bit-for-bit between runs."""
    e = m.energy
    return (
        m.elapsed_s,
        e.package,
        e.pp0,
        e.dram,
        m.flops,
        m.bytes_dram,
        m.stats.busy_core_seconds,
        m.stats.task_count,
    )


def _assert_identical(a, b):
    assert set(a.runs) == set(b.runs)
    for key in a.runs:
        assert _fields(a.runs[key]) == _fields(b.runs[key]), key


@pytest.mark.parametrize("parallel", [None, 2], ids=["serial", "parallel2"])
def test_tracing_does_not_change_results(machine, parallel):
    plain = Study(machine, **CFG).run(RunOptions(parallel=parallel))
    traced = Study(machine, **CFG).run(
        RunOptions(parallel=parallel, trace=True)
    )
    _assert_identical(plain.result, traced.result)


def test_serial_and_parallel_traced_results_identical(machine):
    serial = Study(machine, **CFG).run(RunOptions(trace=True))
    par = Study(machine, **CFG).run(RunOptions(parallel=2, trace=True))
    _assert_identical(serial.result, par.result)


def test_parallel_trace_merges_every_cell_in_serial_order(machine):
    run = Study(machine, **CFG).run(RunOptions(parallel=2, trace=True))
    cells = run.tracer.find("cell")
    assert len(cells) == len(run.result.runs)
    # Merge order is the serial cell order, not completion order.
    merged_keys = [
        (sp.attrs["alg"], sp.attrs["n"], sp.attrs["threads"]) for sp in cells
    ]
    assert merged_keys == list(run.result.runs)
    # Worker groups are rebased end-to-end: no two cells overlap.
    for prev, cur in zip(cells, cells[1:]):
        assert cur.t_start >= prev.t_end - 1e-12


def test_parallel_cells_trace_the_same_layers_as_serial(machine):
    """A worker lowers its own cell, so every parallel cell has the
    serial cell's children (``build``, ``simulate``, ``numerics``,
    ``verify``) and the parent lowers nothing."""
    from repro.algorithms.base import numerics_memo

    cfg = dict(sizes=(128, 256), threads=(1,), execute_max_n=128)

    def layers(parallel):
        # Each run starts from an empty report memo (forked workers
        # inherit the parent's), so every verified cell misses alike.
        numerics_memo().clear()
        run = Study(machine, **cfg).run(RunOptions(parallel=parallel, trace=True))
        tracer = run.tracer
        assert not tracer.find("prebuild")
        return [
            [child.name for child in tracer.children(cell)]
            for cell in tracer.find("cell")
        ]

    serial = layers(None)
    assert all(names[:2] == ["build", "simulate"] for names in serial)
    assert any("numerics" in names for names in serial)
    assert layers(2) == serial


def test_parallel_trace_absorbs_worker_metrics(machine):
    serial = Study(machine, **CFG).run(RunOptions(trace=True))
    par = Study(machine, **CFG).run(RunOptions(parallel=2, trace=True))
    s = serial.metrics
    p = par.metrics
    # Deterministic counters must agree regardless of process layout.
    assert "lowering.tasks" in s and "lowering.tasks" in p
    assert p["lowering.tasks"]["value"] == s["lowering.tasks"]["value"]

    def sweeps(metrics):
        return sum(metrics[n]["value"] for n in SWEEP_COUNTERS if n in metrics)

    assert sweeps(s) > 0
    assert sweeps(p) == sweeps(s)


def test_exported_trace_is_schema_valid_and_attributed(machine, tmp_path):
    out = tmp_path / "study.json"
    run = Study(machine, **CFG).run(RunOptions(trace=out))
    data = read_trace_json(out)
    assert validate_chrome_trace(data) == []

    spans = events_to_spans(data)
    cells = [sp for sp in spans if sp.name == "cell"]
    assert len(cells) == len(run.result.runs)
    wall = data["otherData"]["meta"]["wall_s"]
    cell_sum = sum(sp.duration_s for sp in cells)
    # Acceptance bound is 1% on realistic study sizes; this reduced
    # matrix keeps a little slack against scheduler jitter in CI.
    assert cell_sum == pytest.approx(wall, rel=0.05)

    sim = [sp for sp in spans if sp.name == "simulate"]
    assert len(sim) == len(cells)  # every cell simulated under its span


def test_cell_spans_carry_metric_deltas(machine):
    run = Study(machine, sizes=(128,), threads=(1,), execute_max_n=0,
                verify=False).run(RunOptions(trace=True))
    cell = next(
        sp for sp in run.tracer.find("cell") if sp.attrs["alg"] == "openblas"
    )
    delta = cell.attrs["metrics"]
    assert delta.get("lowering.tasks", 0) > 0
    assert sum(delta.get(n, 0) for n in SWEEP_COUNTERS) > 0
    assert cell.attrs["sim_elapsed_s"] == pytest.approx(
        run.result.measurement("openblas", 128, 1).elapsed_s
    )
