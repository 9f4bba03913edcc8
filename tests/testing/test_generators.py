"""Generators: seed determinism, structural validity, shrinking."""

import pytest

from repro.testing.generators import (
    POLICIES,
    gen_algorithm_case,
    gen_graph_case,
    gen_machine,
    gen_scaling_case,
    gen_study_config,
    shrink_graph_case,
)


def test_same_seed_same_case():
    a = gen_graph_case(1234)
    b = gen_graph_case(1234)
    assert a.describe() == b.describe()
    assert [t.cost for t in a.graph.tasks] == [t.cost for t in b.graph.tasks]
    assert [t.deps for t in a.graph.tasks] == [t.deps for t in b.graph.tasks]


def test_different_seeds_differ():
    descriptions = {gen_graph_case(s).describe() for s in range(20)}
    assert len(descriptions) > 15  # near-certain variety


def test_deps_and_creators_reference_earlier_tids_only():
    """The structural guarantee the shrinker's prefix rule relies on."""
    for seed in range(30):
        case = gen_graph_case(seed)
        for tid, task in enumerate(case.graph.tasks):
            assert all(d < tid for d in task.deps), (seed, tid)
            if task.created_by is not None:
                assert task.created_by < tid, (seed, tid)


def test_threads_and_policy_within_bounds():
    for seed in range(30):
        case = gen_graph_case(seed)
        assert 1 <= case.threads <= case.machine.cores
        assert case.policy in POLICIES


def test_case_command_mentions_seed():
    case = gen_graph_case(42)
    assert "--seed 42" in case.command()
    assert "--cases 1" in case.command()


def test_machine_generator_covers_paper_and_generic():
    import random

    names = {gen_machine(random.Random(s)).name for s in range(40)}
    assert "haswell-e3-1225" in names
    assert any("generic" in n or "dual" in n for n in names)


def test_algorithm_and_scaling_cases_are_well_formed():
    for seed in range(10):
        ac = gen_algorithm_case(seed)
        assert ac.algorithm in ("openblas", "strassen", "caps")
        assert ac.n in (64, 96, 128, 192, 256)
        assert 1 <= ac.threads <= ac.machine.cores
        sc = gen_scaling_case(seed)
        assert sc.threads[0] == 1
        assert list(sc.threads) == sorted(sc.threads)
        assert sc.threads[-1] <= sc.machine.cores


def test_study_config_is_small_and_valid():
    for seed in range(10):
        cfg = gen_study_config(seed)
        assert all(n <= 96 for n in cfg.sizes)
        assert cfg.threads[0] == 1
        assert cfg.verify


# ---------------------------------------------------------------------------
# shrinking


def test_shrink_minimizes_task_count():
    """A predicate that only needs the first task must shrink to one."""
    case = gen_graph_case(7, max_tasks=40)
    assert len(case.graph) > 4

    def fails(c):
        return len(c.graph) >= 1  # always fails; smallest graph is 1 task

    small = shrink_graph_case(case, fails)
    assert len(small.graph) == 1
    assert small.threads == 1
    assert small.policy == "fifo"


def test_shrink_respects_predicate():
    """Shrinking must never return a case the predicate passes on."""
    case = gen_graph_case(9, max_tasks=40)
    threshold = max(2, len(case.graph) - 3)

    def fails(c):
        return len(c.graph) >= threshold

    small = shrink_graph_case(case, fails)
    assert fails(small)
    assert len(small.graph) == threshold  # greedy truncation reaches the edge


def test_shrink_keeps_failing_machine_when_reference_passes():
    """If the failure needs the original machine, the machine swap is
    rejected."""
    case = gen_graph_case(3)

    def fails(c):
        return c.machine.name == case.machine.name

    small = shrink_graph_case(case, fails)
    assert small.machine.name == case.machine.name


def test_shrink_bounded_checks():
    """max_checks caps predicate evaluations."""
    case = gen_graph_case(5, max_tasks=40)
    calls = 0

    def fails(c):
        nonlocal calls
        calls += 1
        return True

    shrink_graph_case(case, fails, max_checks=7)
    assert calls <= 7


def test_shrunk_prefix_is_schedulable():
    """Prefix graphs stay valid DAGs end to end: the shrunk case must
    run through the scheduler without error."""
    from repro.runtime.scheduler import Scheduler

    case = gen_graph_case(13, max_tasks=40)
    small = shrink_graph_case(case, lambda c: len(c.graph) >= 2)
    schedule = Scheduler(
        small.machine, small.threads, small.policy
    ).run(small.graph)
    assert schedule.makespan >= 0.0


# ---------------------------------------------------------------------------
# Hypothesis layer (skipped when the library is missing)


def test_case_strategy_maps_seeds():
    hypothesis = pytest.importorskip("hypothesis")

    from repro.testing.generators import case_strategy

    @hypothesis.given(case_strategy(max_tasks=12))
    @hypothesis.settings(max_examples=20, deadline=None)
    def inner(case):
        assert 1 <= len(case.graph) <= 12
        assert case.policy in POLICIES

    inner()
