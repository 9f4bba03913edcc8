"""The templated-vs-object lowering oracle: agreement on the real
algorithms, detection of forged divergence, and the no-skip guarantee."""

import dataclasses

import pytest

import repro.algorithms.registry as registry
from repro.algorithms.strassen import StrassenWinograd
from repro.machine.specs import haswell_e3_1225
from repro.runtime.arena import _COST_FIELDS, TaskArena
from repro.testing.generators import LoweringCase, gen_lowering_case
from repro.testing.oracle import differential_lowering_check
from repro.testing.taskgraph import TaskGraph


def _case(alg="strassen", n=128, threads=2, seed=0):
    return LoweringCase(
        seed=seed,
        machine=haswell_e3_1225(),
        algorithm=alg,
        n=n,
        threads=threads,
    )


def test_generator_is_seed_pinned():
    assert gen_lowering_case(42) == gen_lowering_case(42)
    cases = [gen_lowering_case(s) for s in range(60)]
    assert {c.algorithm for c in cases} == {"openblas", "strassen", "caps"}
    assert len({c.n for c in cases}) > 3


def test_clean_on_sampled_seeds():
    for seed in range(20):
        case = gen_lowering_case(seed)
        assert differential_lowering_check(case) == [], case.describe()


def test_describe_mentions_cell():
    case = _case()
    assert "strassen" in case.describe()
    assert "n=128" in case.describe()


def test_missing_arena_path_is_a_violation(monkeypatch):
    class NoArena(StrassenWinograd):
        def build_arena(self, n, threads):
            return None

    real = registry.make_algorithm
    monkeypatch.setattr(
        registry,
        "make_algorithm",
        lambda name, machine, **kw: NoArena(machine)
        if name == "strassen"
        else real(name, machine, **kw),
    )
    violations = differential_lowering_check(_case())
    assert [v.invariant for v in violations] == ["oracle.lowering_path"]


def test_wrong_graph_type_is_a_violation(monkeypatch):
    class ObjectArena(StrassenWinograd):
        def build_arena(self, n, threads):
            build = super().build_arena(n, threads)
            return dataclasses.replace(
                build, graph=TaskGraph.from_arena(build.graph)
            )

    monkeypatch.setattr(
        registry,
        "make_algorithm",
        lambda name, machine, **kw: ObjectArena(machine),
    )
    violations = differential_lowering_check(_case())
    assert [v.invariant for v in violations] == ["oracle.lowering_path"]


def test_forged_cost_skew_is_detected(monkeypatch):
    class SkewedArena(StrassenWinograd):
        def build_arena(self, n, threads):
            build = super().build_arena(n, threads)
            arena = build.graph
            cols = {f: getattr(arena, f).copy() for f in _COST_FIELDS}
            cols["flops"][0] += 1.0  # one ulp-visible forgery
            build.graph = TaskArena(
                arena.name,
                arena.names,
                arena.name_ids,
                cols,
                arena.untied,
                arena.created_by,
                arena.dep_indptr,
                arena.dep_indices,
            )
            return build

    monkeypatch.setattr(
        registry,
        "make_algorithm",
        lambda name, machine, **kw: SkewedArena(machine),
    )
    violations = differential_lowering_check(_case())
    assert violations
    assert violations[0].invariant == "oracle.lowering_bits"


def test_harness_runs_and_counts_the_family():
    from repro.testing.harness import run_verify

    report = run_verify(cases=11, seed=0, max_tasks=12)
    assert report.checks.get("arena_lowering", 0) >= 2
    assert report.ok, report.summary()
