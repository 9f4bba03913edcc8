"""The numerics-program oracle: stamped numerics equal the sequential
fast matmul byte for byte, in two linear extensions; forged kernels and
racy DAGs are detected."""

import dataclasses

import numpy as np
import pytest

import repro.algorithms.program as program
import repro.algorithms.registry as registry
from repro.algorithms.strassen import StrassenWinograd
from repro.machine.specs import haswell_e3_1225
from repro.runtime.arena import _COST_FIELDS, TaskArena
from repro.runtime.replay import depth_first_order
from repro.testing.generators import NumericsCase, gen_numerics_case
from repro.testing.oracle import differential_numerics_check


def _case(**params):
    return NumericsCase(
        seed=0,
        machine=haswell_e3_1225(),
        algorithm="strassen",
        params=tuple(params.items()) or (("cutoff", 16), ("grain", 32)),
        n=100,
        threads=3,
    )


def test_generator_is_seed_pinned_and_covers_the_variants():
    assert gen_numerics_case(7) == gen_numerics_case(7)
    cases = [gen_numerics_case(s) for s in range(200)]
    assert {c.algorithm for c in cases} == {"openblas", "strassen", "caps"}
    flags = {
        k: {dict(c.params).get(k) for c in cases}
        for k in ("odd_strategy", "classic", "pack", "cutoff_depth")
    }
    assert "peel" in flags["odd_strategy"] and True in flags["classic"]
    assert flags["pack"] >= {True, False}
    assert flags["cutoff_depth"] >= {0, 1, 2, 4}
    sizes = {c.n for c in cases}
    assert any(n % 2 for n in sizes) and any(n & (n - 1) for n in sizes)
    assert {c.threads for c in cases} == {1, 2, 3, 4}


def test_clean_on_sampled_seeds():
    for seed in range(30):
        case = gen_numerics_case(seed)
        assert differential_numerics_check(case) == [], case.describe()


@pytest.mark.parametrize(
    "params",
    [
        {"cutoff": 16, "grain": 32},
        {"cutoff": 16, "grain": 32, "odd_strategy": "peel"},
        {"cutoff": 16, "grain": 16, "classic": True},
    ],
)
def test_strassen_variants_at_odd_n(params):
    assert differential_numerics_check(_case(**params)) == []


def test_kahn_order_is_a_different_linear_extension(machine):
    arena = StrassenWinograd(machine, cutoff=16, grain=16).build_arena(64, 2).graph
    order = depth_first_order(arena)
    assert sorted(order) == list(range(len(arena)))
    assert order != list(range(len(arena)))
    pos = np.empty(len(arena), dtype=np.int64)
    pos[order] = np.arange(len(arena))
    owners = np.repeat(np.arange(len(arena)), arena.dep_counts)
    assert np.all(pos[arena.dep_indices] < pos[owners])


def test_forged_kernel_is_detected(monkeypatch):
    kernels = list(program._KERNELS)
    real = kernels[program.WINO_POST]

    def skewed(v, cutoff):
        real(v, cutoff)
        v[-1][0, 0] += 1e-12  # one ulp-visible forgery in C22

    kernels[program.WINO_POST] = skewed
    monkeypatch.setattr(program, "_KERNELS", tuple(kernels))
    invariants = [v.invariant for v in differential_numerics_check(_case())]
    assert invariants == ["oracle.numerics_reference"]


def test_missing_dependencies_are_detected(monkeypatch):
    """An arena that drops every dependency lets schedules race the
    stamped ops: the product then depends on the linear extension."""

    class Racy(StrassenWinograd):
        def build_arena(self, n, threads):
            build = super().build_arena(n, threads)
            a = build.graph
            free = TaskArena(
                a.name,
                a.names,
                a.name_ids,
                {f: getattr(a, f) for f in _COST_FIELDS},
                a.untied,
                a.created_by,
                np.zeros(len(a) + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
            return dataclasses.replace(build, graph=free)

    monkeypatch.setattr(
        registry, "make_algorithm", lambda name, machine, **kw: Racy(machine, **kw)
    )
    invariants = {v.invariant for v in differential_numerics_check(_case())}
    assert "oracle.numerics_order" in invariants


def test_harness_runs_and_counts_the_family():
    from repro.testing.harness import run_verify

    report = run_verify(cases=11, seed=0, max_tasks=12)
    assert report.checks.get("numerics_program", 0) >= 2
    assert report.ok, report.summary()


def test_a_sibling_thread_count_with_another_product_is_detected(monkeypatch):
    """The report memo assumes cells sharing a program and DAG compute
    the same C; a thread count that breaks it is a memo violation."""

    class Skewed(StrassenWinograd):
        def compute_product(self, n, threads, order, simulated=None, seed=0):
            product = super().compute_product(n, threads, order, simulated, seed=seed)
            if threads == 2:
                product.c[0, 0] += 1e-12
            return product

    monkeypatch.setattr(
        registry, "make_algorithm", lambda name, machine, **kw: Skewed(machine, **kw)
    )
    invariants = [v.invariant for v in differential_numerics_check(_case())]
    assert invariants == ["oracle.numerics_memo"]


@pytest.mark.parametrize("name", ["openblas", "strassen", "caps"])
def test_equal_memo_keys_compute_byte_identical_products_at_512(machine, name):
    """At the paper's smallest verified size, every thread count's start
    order and one other linear extension compute the same C wherever
    the report memo would share a report."""
    from repro.algorithms.base import numerics_digest
    from repro.runtime.scheduler import Scheduler

    alg = registry.make_algorithm(name, machine)
    runs = []
    for threads in (1, 2, 3, 4):
        arena = alg.build_arena(512, threads).graph
        key = numerics_digest(alg.numerics_program(512, threads), arena)
        order = Scheduler(machine, threads).run(arena).start_order()
        runs.append((key, threads, order, arena))
    key, _, _, arena = runs[0]
    runs.append((key, 1, depth_first_order(arena), arena))
    products: dict[str, set] = {}
    for key, threads, order, arena in runs:
        c = alg.compute_product(512, threads, order, arena, seed=2015).c
        products.setdefault(key, set()).add(np.ascontiguousarray(c).tobytes())
    assert all(len(cs) == 1 for cs in products.values())
    assert len(products) == (3 if name == "openblas" else 1)
