"""Build cache: hit accounting, LRU eviction, and isolation of numerics
runs (never cached)."""

import numpy as np
import pytest

from repro.algorithms import StrassenWinograd
from repro.algorithms.registry import BuildCache, default_build_cache, make_algorithm
from repro.runtime.scheduler import Scheduler


@pytest.fixture()
def cache():
    return BuildCache(maxsize=4)


def test_cost_only_builds_are_cached_and_shared(machine, cache):
    alg = StrassenWinograd(machine)
    first = alg.build_cached(128, 2, cache=cache)
    again = alg.build_cached(128, 2, cache=cache)
    assert again is first  # same immutable instance
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1
    assert len(cache) == 1


def test_key_includes_n_threads(machine, cache):
    alg = StrassenWinograd(machine)
    a = alg.build_cached(128, 2, cache=cache)
    b = alg.build_cached(128, 4, cache=cache)
    c = alg.build_cached(256, 2, cache=cache)
    assert len({id(x) for x in (a, b, c)}) == 3
    assert cache.stats()["misses"] == 3 and cache.stats()["hits"] == 0


def test_key_includes_algorithm_instance(machine, cache):
    one = StrassenWinograd(machine)
    two = StrassenWinograd(machine)
    a = one.build_cached(128, 2, cache=cache)
    b = two.build_cached(128, 2, cache=cache)
    assert a is not b  # different instances may be configured differently


def test_lru_eviction(machine):
    cache = BuildCache(maxsize=2)
    alg = StrassenWinograd(machine)
    alg.build_cached(128, 1, cache=cache)
    alg.build_cached(128, 2, cache=cache)
    alg.build_cached(128, 1, cache=cache)  # refresh LRU order
    alg.build_cached(128, 3, cache=cache)  # evicts threads=2
    assert len(cache) == 2
    alg.build_cached(128, 1, cache=cache)
    assert cache.stats()["hits"] == 2  # threads=1 survived both times
    alg.build_cached(128, 2, cache=cache)
    assert cache.stats()["misses"] == 4  # threads=2 was re-lowered


def _product(alg, machine, n, threads, simulated):
    """Run *alg*'s numerics on *simulated* in its schedule's order."""
    order = Scheduler(machine, threads).run(simulated).start_order()
    return alg.compute_product(n, threads, order, simulated)


def test_executed_builds_never_cached_and_isolated(machine):
    """Numerics never touch a build cache: every ``compute_product``
    binds fresh operands and a fresh C (a run accumulates into C, so
    sharing would corrupt later runs)."""
    alg = make_algorithm("openblas", machine)
    simulated = alg.build_arena(64, 1).graph
    default = default_build_cache()
    before = default.stats()
    first = _product(alg, machine, 64, 1, simulated)
    second = _product(alg, machine, 64, 1, simulated)
    assert default.stats() == before  # nothing stored nor looked up
    assert not np.shares_memory(first.c, second.c)
    np.testing.assert_array_equal(first.c, second.c)  # deterministic clone
    first.c[...] = 0.0
    assert np.any(second.c != 0.0)


def test_executed_request_never_served_from_cost_only_entry(machine, cache):
    """Regression: with the cost-only lowering of the same (alg, n,
    threads) cached, a numerics run must produce its own product
    and leave the cached entry cost-only (a cost-only build has no
    operands; handing it out as executed would be an empty C)."""
    alg = make_algorithm("openblas", machine)
    cost_only = alg.build_cached(64, 1, cache=cache)
    assert cost_only.cost_only and len(cache) == 1

    executed = _product(alg, machine, 64, 1, cost_only.graph)
    assert executed is not cost_only
    assert not executed.cost_only
    assert executed.verify().ok
    # The cost-only entry is still there, untouched, and still served
    # for cost-only requests.
    assert cost_only.cost_only
    assert alg.build_cached(64, 1, cache=cache) is cost_only


def test_execute_build_returning_cost_only_is_rejected(machine, cache):
    """An algorithm with a cost-only lowering and no numerics program
    must be caught by the numerics check, not discovered later as an
    empty C."""
    from repro.algorithms.base import MatmulAlgorithm
    from repro.util.errors import ValidationError

    class Broken(MatmulAlgorithm):
        name = "broken"
        display_name = "Broken"

        def flop_count(self, n):
            return 2.0 * n**3

        def build_arena(self, n, threads):
            inner = make_algorithm("openblas", self.machine)
            return inner.build_arena(n, threads)

    broken = Broken(machine)
    simulated = broken.build_cached(64, 1, cache=cache).graph
    schedule = Scheduler(machine, 1).run(simulated)
    with pytest.raises(ValidationError, match="cost-only"):
        broken.check_numerics(64, 1, schedule, simulated)


def test_eviction_never_crosses_the_execute_boundary(machine):
    """Fill a tiny cache past its maxsize with cost-only entries while
    interleaving numerics runs: eviction churn must never let a
    numerics run observe a cached object or another run's product."""
    cache = BuildCache(maxsize=2)
    alg = make_algorithm("openblas", machine)
    # Keep every result alive: comparing bare id()s would false-positive
    # when the allocator reuses a freed address.
    seen = []
    for threads in (1, 2, 3, 1, 2):
        cost_only = alg.build_cached(64, threads, cache=cache)
        executed = _product(alg, machine, 64, threads, cost_only.graph)
        assert executed is not cost_only
        assert not executed.cost_only and cost_only.cost_only
        assert all(executed.c is not prev.c for prev in seen)
        seen.append(executed)
        assert len(cache) <= 2


def test_default_cache_is_process_wide(machine):
    cache = default_build_cache()
    assert default_build_cache() is cache
    baseline = cache.stats()["misses"]
    alg = StrassenWinograd(machine)
    alg.build_cached(128, 2)
    assert cache.stats()["misses"] == baseline + 1
