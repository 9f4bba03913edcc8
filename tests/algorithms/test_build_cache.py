"""Build cache: hit accounting, LRU eviction, and isolation of executed
lowerings (never cached)."""

import numpy as np
import pytest

from repro.algorithms import StrassenWinograd
from repro.algorithms.registry import BuildCache, default_build_cache, make_algorithm


@pytest.fixture()
def cache():
    return BuildCache(maxsize=4)


def test_cost_only_builds_are_cached_and_shared(machine, cache):
    alg = StrassenWinograd(machine)
    first = alg.build_cached(128, 2, seed=0, cache=cache)
    again = alg.build_cached(128, 2, seed=0, cache=cache)
    assert again is first  # same immutable instance
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1
    assert len(cache) == 1


def test_key_includes_n_threads_seed(machine, cache):
    alg = StrassenWinograd(machine)
    a = alg.build_cached(128, 2, seed=0, cache=cache)
    b = alg.build_cached(128, 4, seed=0, cache=cache)
    c = alg.build_cached(256, 2, seed=0, cache=cache)
    d = alg.build_cached(128, 2, seed=1, cache=cache)
    assert len({id(x) for x in (a, b, c, d)}) == 4
    assert cache.stats()["misses"] == 4 and cache.stats()["hits"] == 0


def test_key_includes_algorithm_instance(machine, cache):
    one = StrassenWinograd(machine)
    two = StrassenWinograd(machine)
    a = one.build_cached(128, 2, seed=0, cache=cache)
    b = two.build_cached(128, 2, seed=0, cache=cache)
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


def test_executed_builds_never_cached_and_isolated(machine, cache):
    """The deprecated ``build_cached(execute=True)`` spelling hands out
    a fresh executed lowering every time and never touches the cache:
    executed graphs bind operand arrays and a replay accumulates into
    C, so sharing would corrupt later runs."""
    from repro.sim.engine import Engine

    alg = make_algorithm("openblas", machine)
    with pytest.warns(DeprecationWarning, match="build_cached"):
        first = alg.build_cached(64, 1, seed=0, execute=True, cache=cache)
    with pytest.warns(DeprecationWarning, match="build_cached"):
        second = alg.build_cached(64, 1, seed=0, execute=True, cache=cache)
    assert first is not second
    assert len(cache) == 0  # nothing stored
    assert cache.stats()["misses"] == 0  # nor looked up

    engine = Engine(machine)
    with pytest.warns(DeprecationWarning, match="Engine.run"):
        engine.run(first.graph, 1, execute=True)
    # Replaying `first` accumulated into its C; `second` must be pristine.
    assert np.any(first.c != 0.0)
    assert np.all(second.c == 0.0)
    with pytest.warns(DeprecationWarning, match="Engine.run"):
        engine.run(second.graph, 1, execute=True)
    np.testing.assert_array_equal(first.c, second.c)  # deterministic clone


def test_executed_request_never_served_from_cost_only_entry(machine, cache):
    """Regression: same (alg, n, threads, seed) key, cost-only lowering
    cached first — an execute=True request must NOT be satisfied by it
    (a cost-only build has no operands or compute closures; running it
    would silently produce an empty C)."""
    alg = make_algorithm("openblas", machine)
    cost_only = alg.build_cached(64, 1, seed=0, cache=cache)
    assert cost_only.cost_only and len(cache) == 1

    with pytest.warns(DeprecationWarning, match="build_cached"):
        executed = alg.build_cached(64, 1, seed=0, execute=True, cache=cache)
    assert executed is not cost_only
    assert not executed.cost_only
    assert executed.c is not None
    # The cost-only entry is still there, untouched, and still served
    # for cost-only requests.
    assert alg.build_cached(64, 1, seed=0, cache=cache) is cost_only


def test_execute_build_returning_cost_only_is_rejected(machine, cache):
    """An algorithm whose build() ignores execute=True must be caught by
    the numerics check, not discovered later as an empty C."""
    from repro.algorithms.base import MatmulAlgorithm
    from repro.runtime.scheduler import Scheduler
    from repro.util.errors import ValidationError

    class Broken(MatmulAlgorithm):
        name = "broken"
        display_name = "Broken"

        def flop_count(self, n):
            return 2.0 * n**3

        def build(self, n, threads, seed=0, execute=True):
            inner = make_algorithm("openblas", self.machine)
            return inner.build(n, threads, seed=seed, execute=False)

    broken = Broken(machine)
    simulated = broken.build_cached(64, 1, cache=cache).graph
    schedule = Scheduler(machine, 1).run(simulated)
    with pytest.raises(ValidationError, match="cost-only"):
        broken.check_numerics(64, 1, schedule, simulated)


@pytest.mark.filterwarnings("ignore:MatmulAlgorithm.build_cached:DeprecationWarning")
def test_eviction_never_crosses_the_execute_boundary(machine):
    """Fill a tiny cache past its maxsize with cost-only entries while
    interleaving executed requests: eviction churn must never let an
    executed request observe a cached object."""
    cache = BuildCache(maxsize=2)
    alg = make_algorithm("openblas", machine)
    # Keep every result alive: comparing bare id()s would false-positive
    # when the allocator reuses a freed address.
    seen = []
    for threads in (1, 2, 3, 1, 2):
        cost_only = alg.build_cached(64, threads, cache=cache)
        executed = alg.build_cached(64, threads, execute=True, cache=cache)
        assert executed is not cost_only
        assert not executed.cost_only
        assert all(executed is not prev for prev in seen)  # freshly lowered
        seen.append(executed)
        assert len(cache) <= 2


def test_default_cache_is_process_wide(machine):
    cache = default_build_cache()
    assert default_build_cache() is cache
    baseline = cache.stats()["misses"]
    alg = StrassenWinograd(machine)
    alg.build_cached(128, 2, seed=123)
    assert cache.stats()["misses"] == baseline + 1
