"""Templated columnar lowering vs the task-at-a-time recursion.

``build_arena`` stamps pre-built subtree templates into a
:class:`~repro.runtime.arena.TaskArena`; the task-at-a-time lowering of
:mod:`repro.testing.lowering` is the differential oracle.  These tests
pin the contract from ``MatmulAlgorithm.build_arena``: the arena must be
*bit-identical* to the arena the recursion emits one task at a time —
same tids, names, dependency lists, cost bytes, untied flags and
creator links — across every algorithm variant and branch (leaf, grain,
odd-size peel, BFS/DFS crossover, packing on/off).
"""

import pickle

import pytest

from repro.algorithms.blocked import BlockedGemm
from repro.algorithms.caps import CapsStrassen
from repro.algorithms.strassen import StrassenWinograd
from repro.runtime.arena import TaskArena
from repro.runtime.scheduler import Scheduler
from repro.testing.lowering import object_lowering
from repro.testing.oracle import compare_schedules


def _assert_bit_identical(alg, n, threads):
    obj = object_lowering(alg, n, threads)
    arena_build = alg.build_arena(n, threads)
    arena = arena_build.graph
    assert isinstance(arena, TaskArena)
    assert obj.structural_diff(arena) == []
    assert arena_build.cost_only
    program = alg.numerics_program(n, threads)
    assert len(program) == len(arena)
    assert (program.variant, program.cutoff) == (arena_build.variant, arena_build.cutoff)


class TestBitIdentity:
    @pytest.mark.parametrize("n", [64, 100, 128, 256, 512])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_strassen_winograd(self, machine, n, threads):
        _assert_bit_identical(StrassenWinograd(machine), n, threads)

    def test_strassen_classic(self, machine):
        _assert_bit_identical(StrassenWinograd(machine, classic=True), 256, 2)

    def test_strassen_odd_peel(self, machine):
        alg = StrassenWinograd(machine, odd_strategy="peel")
        _assert_bit_identical(alg, 200, 2)
        _assert_bit_identical(alg, 1000, 4)

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_caps(self, machine, n, threads):
        _assert_bit_identical(CapsStrassen(machine), n, threads)

    def test_caps_no_pack(self, machine):
        _assert_bit_identical(CapsStrassen(machine, pack=False), 256, 2)

    @pytest.mark.parametrize("cutoff_depth", [0, 1, 10])
    def test_caps_bfs_dfs_crossover(self, machine, cutoff_depth):
        alg = CapsStrassen(machine, cutoff_depth=cutoff_depth)
        _assert_bit_identical(alg, 512, 3)

    @pytest.mark.parametrize("n", [96, 512])
    def test_blocked(self, machine, n):
        _assert_bit_identical(BlockedGemm(machine), n, 4)

    def test_template_memo_reuse_stays_identical(self, machine):
        # The same instance lowers several cells; memoized subtree
        # templates must not leak state between problem sizes.
        alg = StrassenWinograd(machine)
        for n in (512, 64, 256, 100, 512):
            _assert_bit_identical(alg, n, 2)


class TestScheduling:
    def test_fast_engine_identical_on_both_shapes(self, machine):
        for alg in (StrassenWinograd(machine), CapsStrassen(machine)):
            for policy in ("fifo", "critical"):
                arena = alg.build_arena(256, 3).graph
                obj = object_lowering(alg, 256, 3)
                fa = Scheduler(
                    machine, 3, policy, engine="fast"
                ).run(arena)
                fo = Scheduler(
                    machine, 3, policy, engine="fast"
                ).run(obj)
                assert compare_schedules(fa, fo) == [], (alg.name, policy)
                # The measured quantities are *exactly* equal, not just
                # violation-free: same floats in, same decisions out.
                assert fa.makespan == fo.makespan
                assert fa.stats.busy_core_seconds == fo.stats.busy_core_seconds


class TestCacheRouting:
    def test_cost_only_builds_route_to_arena(self, machine):
        from repro.algorithms.base import BuildCache

        cache = BuildCache()
        alg = StrassenWinograd(machine)
        build = alg.build_cached(256, 2, cache=cache)
        assert isinstance(build.graph, TaskArena)
        # Shared instance on a repeat hit.
        again = alg.build_cached(256, 2, cache=cache)
        assert again is build
        assert cache.stats()["hits"] == 1

    def test_numerics_program_matches_the_cached_arena(self, machine):
        """Numerics come from a program stamped by the same template
        recursion as the cached arena: one op per arena task, run in
        the arena's schedule."""
        from repro.algorithms.base import BuildCache

        cache = BuildCache()
        alg = StrassenWinograd(machine)
        arena = alg.build_cached(96, 2, cache=cache).graph
        assert isinstance(arena, TaskArena)
        program = alg.numerics_program(96, 2)
        assert len(program) == len(arena)
        schedule = Scheduler(machine, 2).run(arena)
        assert schedule.makespan > 0
        product = alg.compute_product(96, 2, schedule.start_order(), arena)
        assert product.graph is arena
        assert product.verify().ok


class TestPickling:
    def test_algorithms_pickle_without_template_state(self, machine):
        for alg in (StrassenWinograd(machine), CapsStrassen(machine)):
            alg.build_arena(256, 2)  # warm the memo
            clone = pickle.loads(pickle.dumps(alg))
            a = clone.build_arena(256, 2).graph
            b = alg.build_arena(256, 2).graph
            assert a.structural_diff(b) == []

    def test_arena_build_survives_pickle(self, machine):
        alg = CapsStrassen(machine)
        build = alg.build_arena(256, 2)
        clone = pickle.loads(pickle.dumps(build))
        assert clone.graph.structural_diff(build.graph) == []
