"""Discrete-event scheduler: correctness, contention, Graham bounds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.compiledpath import compiled_available
from repro.runtime.cost import TaskCost
from repro.runtime.replay import replay
from repro.runtime.scheduler import Scheduler
from repro.runtime.openmp import OpenMP
from repro.runtime.plans import plan_bundle
from repro.testing.taskgraph import TaskGraph
from repro.util.errors import ConfigurationError, SchedulingError


def flop_task_graph(n_tasks, flops=1e9, efficiency=1.0):
    g = TaskGraph("flops")
    for i in range(n_tasks):
        g.add(f"t{i}", TaskCost(flops=flops, efficiency=efficiency))
    return g


class TestBasics:
    def test_single_compute_task_duration(self, machine):
        g = flop_task_graph(1, flops=51.2e9, efficiency=1.0)
        sched = Scheduler(machine, threads=1).run(g.to_arena())
        assert sched.makespan == pytest.approx(1.0)

    def test_efficiency_slows_compute(self, machine):
        g = flop_task_graph(1, flops=51.2e9, efficiency=0.5)
        sched = Scheduler(machine, threads=1).run(g.to_arena())
        assert sched.makespan == pytest.approx(2.0)

    def test_independent_tasks_scale_linearly(self, machine):
        g = flop_task_graph(8, flops=51.2e9)
        t1 = Scheduler(machine, threads=1).run(g.to_arena()).makespan
        t4 = Scheduler(machine, threads=4).run(g.to_arena()).makespan
        assert t1 == pytest.approx(8.0)
        assert t4 == pytest.approx(2.0)

    def test_dependency_chain_serializes(self, machine):
        g = TaskGraph()
        prev = None
        for i in range(4):
            prev = g.add(f"t{i}", TaskCost(flops=51.2e9), deps=[prev] if prev else [])
        sched = Scheduler(machine, threads=4).run(g.to_arena())
        assert sched.makespan == pytest.approx(4.0)
        assert sched.stats.avg_parallelism == pytest.approx(1.0)

    def test_records_cover_all_tasks(self, machine):
        g = flop_task_graph(5)
        sched = Scheduler(machine, threads=2).run(g.to_arena())
        assert sorted(r.tid for r in sched.records) == list(range(5))

    def test_records_respect_dependencies(self, machine):
        g = TaskGraph()
        a = g.add("a", TaskCost(flops=1e9))
        b = g.add("b", TaskCost(flops=1e9), deps=[a])
        sched = Scheduler(machine, threads=2).run(g.to_arena())
        ra, rb = sched.record_for(a.tid), sched.record_for(b.tid)
        assert rb.start >= ra.end - 1e-12

    def test_zero_cost_tasks_take_no_core(self, machine):
        g = TaskGraph()
        a = g.add("a", TaskCost(flops=1e9))
        j = g.join("join", [a])
        b = g.add("b", TaskCost(flops=1e9), deps=[j])
        sched = Scheduler(machine, threads=1).run(g.to_arena())
        rec = sched.record_for(j.tid)
        assert rec.core == -1
        assert rec.duration == 0.0


class TestContention:
    def test_dram_bandwidth_shared(self, machine):
        """Two memory-only tasks on two cores take as long as serial:
        the single channel is the bottleneck."""
        nbytes = machine.dram_bandwidth  # 1 second worth each
        g = TaskGraph()
        g.add("m0", TaskCost(flops=1, bytes_dram=nbytes))
        g.add("m1", TaskCost(flops=1, bytes_dram=nbytes))
        t1 = Scheduler(machine, threads=1).run(g.to_arena()).makespan
        t2 = Scheduler(machine, threads=2).run(g.to_arena()).makespan
        assert t1 == pytest.approx(2.0, rel=1e-6)
        assert t2 == pytest.approx(2.0, rel=1e-6)

    def test_compute_overlaps_memory(self, machine):
        """A task finishes when its *slowest* dimension finishes."""
        g = TaskGraph()
        g.add("t", TaskCost(flops=51.2e9, bytes_dram=machine.dram_bandwidth / 2))
        sched = Scheduler(machine, threads=1).run(g.to_arena())
        assert sched.makespan == pytest.approx(1.0)  # compute bound, mem hidden

    def test_memory_bound_task(self, machine):
        g = TaskGraph()
        g.add("t", TaskCost(flops=1e6, bytes_dram=machine.dram_bandwidth * 2))
        sched = Scheduler(machine, threads=1).run(g.to_arena())
        assert sched.makespan == pytest.approx(2.0, rel=1e-6)

    def test_bandwidth_released_when_task_finishes_memory(self, machine):
        """A short memory task frees its share for the longer one."""
        bw = machine.dram_bandwidth
        g = TaskGraph()
        g.add("short", TaskCost(flops=1, bytes_dram=bw / 4))
        g.add("long", TaskCost(flops=1, bytes_dram=bw))
        sched = Scheduler(machine, threads=2).run(g.to_arena())
        # short: 0.25s of half-bw -> done at 0.5s; long gets 0.25 bw-sec
        # by then, remaining 0.75 at full bw -> 1.25s total.
        assert sched.makespan == pytest.approx(1.25, rel=1e-6)

    def test_compute_is_private_no_contention(self, machine):
        g = flop_task_graph(4, flops=51.2e9)
        sched = Scheduler(machine, threads=4).run(g.to_arena())
        assert sched.makespan == pytest.approx(1.0)


class TestPolicies:
    def _graph(self):
        g = TaskGraph()
        for i in range(6):
            g.add(f"t{i}", TaskCost(flops=(i + 1) * 1e9))
        return g

    @pytest.mark.parametrize("policy", ["fifo", "lifo", "critical"])
    def test_all_policies_complete_all_tasks(self, machine, policy):
        sched = Scheduler(machine, threads=2, policy=policy).run(self._graph().to_arena())
        assert len([r for r in sched.records if r.core >= 0]) == 6

    def test_unknown_policy_rejected(self, machine):
        with pytest.raises(ConfigurationError):
            Scheduler(machine, threads=1, policy="random")

    def test_critical_policy_prefers_long_chains(self, machine):
        """With the critical-path policy, the head of the long chain is
        scheduled before unrelated short work on a single core."""
        g = TaskGraph()
        short = g.add("short", TaskCost(flops=1e9))
        head = g.add("head", TaskCost(flops=1e9))
        tail = g.add("tail", TaskCost(flops=50e9), deps=[head])
        sched = Scheduler(machine, threads=1, policy="critical").run(g.to_arena())
        assert sched.record_for(head.tid).start < sched.record_for(short.tid).start


class TestValidation:
    def test_thread_bounds(self, machine):
        with pytest.raises(ConfigurationError):
            Scheduler(machine, threads=0)
        with pytest.raises(ConfigurationError):
            Scheduler(machine, threads=machine.cores + 1)

    def test_compute_closures_run_in_dependency_order(self, machine):
        order = []
        omp = OpenMP("g")
        a = omp.task("a", TaskCost(flops=1e9), compute=lambda: order.append("a"))
        omp.task("b", TaskCost(flops=1e9), deps=[a], compute=lambda: order.append("b"))
        schedule = Scheduler(machine, threads=4).run(omp.graph)
        assert order == []  # scheduling never runs closures
        replay(omp.graph, omp.computes, schedule.start_order())
        assert order == ["a", "b"]

    @pytest.mark.parametrize("engine", ["reference", "fast", "compiled"])
    def test_scheduler_never_runs_closures(self, machine, engine):
        if engine == "compiled" and not compiled_available()[0]:
            pytest.skip("compiled engine unavailable")
        hit = []
        omp = OpenMP("g")
        omp.task("a", TaskCost(flops=1e9), compute=lambda: hit.append(1))
        omp.task("join", TaskCost(), deps=[0], compute=lambda: hit.append(2))
        Scheduler(machine, threads=1, engine=engine).run(omp.graph)
        assert hit == []

    @pytest.mark.parametrize("engine", ["reference", "fast", "compiled"])
    def test_an_event_that_retires_nothing_raises(self, machine, engine):
        """An event whose seat entries all sit past it (``ta > tt``)
        retires nothing; each kernel raises instead of repeating it for
        ever.  ``reference`` prices the entry from a NaN efficiency
        column (every comparison with it is false); ``fast`` and
        ``compiled`` seat from a plan bundle whose EPS-adjusted time is
        one ulp past the true exhaust time."""
        if engine == "compiled" and not compiled_available()[0]:
            pytest.skip("compiled engine unavailable")
        omp = OpenMP("spin")
        omp.task("a", TaskCost(flops=1e9))
        arena = omp.graph
        sched = Scheduler(machine, threads=1, engine=engine)
        if engine == "reference":
            arena.efficiency[0] = np.nan
        else:
            cp, _ = plan_bundle(arena, sched._plan_key)
            cp.priv_adj = np.nextafter(cp.priv_dur, np.inf)
        with pytest.raises(SchedulingError, match="made no progress"):
            sched.run(arena)


class TestGrahamBounds:
    """List scheduling guarantees: T1/P <= makespan <= T1/P + Tinf."""

    @settings(max_examples=20, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=1e8, max_value=5e10),  # flops
                st.integers(min_value=0, max_value=3),  # dep fan-in
            ),
            min_size=1,
            max_size=25,
        ),
        threads=st.integers(min_value=1, max_value=4),
    )
    def test_makespan_within_graham_bounds(self, machine, data, threads):
        g = TaskGraph("random")
        rngish = 0
        for i, (flops, fanin) in enumerate(data):
            deps = []
            for k in range(min(fanin, i)):
                rngish = (rngish * 1103515245 + 12345 + i + k) % (2**31)
                deps.append(rngish % i)
            g.add(f"t{i}", TaskCost(flops=flops), deps=sorted(set(deps)))
        scheduler = Scheduler(machine, threads=threads)
        sched = scheduler.run(g.to_arena())
        dur = scheduler.uncontended_duration
        t1 = g.total_work_seconds(dur)
        tinf = g.critical_path_seconds(dur)
        assert sched.makespan >= max(t1 / threads, tinf) - 1e-9
        assert sched.makespan <= t1 / threads + tinf + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(threads=st.integers(min_value=1, max_value=4),
           n=st.integers(min_value=1, max_value=30))
    def test_work_conservation(self, machine, threads, n):
        """Total busy core-seconds equals total task time (compute-only
        tasks have no contention)."""
        g = flop_task_graph(n, flops=1e9)
        scheduler = Scheduler(machine, threads=threads)
        sched = scheduler.run(g.to_arena())
        per_task = 1e9 / machine.core_peak_flops
        assert sched.stats.busy_core_seconds == pytest.approx(n * per_task, rel=1e-9)


class TestWorkStealing:
    def test_steal_policy_completes_and_verifies(self, machine):
        from repro.algorithms import StrassenWinograd

        alg = StrassenWinograd(machine, cutoff=32, grain=32)
        arena = alg.build_arena(128, threads=4).graph
        schedule = Scheduler(machine, threads=4, policy="steal").run(arena)
        product = alg.compute_product(128, 4, schedule.start_order(), arena)
        assert product.verify().ok

    def test_steals_counted_on_imbalanced_spawn(self, machine):
        """All children spawned from one core's task: other cores must
        steal to make progress."""
        g = TaskGraph()
        root = g.add("root", TaskCost(flops=1e9))
        for i in range(8):
            g.add(f"kid{i}", TaskCost(flops=1e9), deps=[root], created_by=root)
        sched = Scheduler(machine, threads=4, policy="steal").run(g.to_arena())
        assert sched.stats.steals >= 3  # at least the other three cores

    def test_no_steals_single_thread(self, machine):
        g = TaskGraph()
        root = g.add("root", TaskCost(flops=1e9))
        g.add("kid", TaskCost(flops=1e9), deps=[root], created_by=root)
        sched = Scheduler(machine, threads=1, policy="steal").run(g.to_arena())
        assert sched.stats.steals == 0

    def test_steal_makespan_within_graham(self, machine):
        g = TaskGraph()
        root = g.add("root", TaskCost(flops=1e9))
        for i in range(12):
            g.add(f"kid{i}", TaskCost(flops=2e9), deps=[root], created_by=root)
        scheduler = Scheduler(machine, threads=4, policy="steal")
        sched = scheduler.run(g.to_arena())
        dur = scheduler.uncontended_duration
        t1 = g.total_work_seconds(dur)
        tinf = g.critical_path_seconds(dur)
        assert sched.makespan <= t1 / 4 + tinf + 1e-9

    def test_own_work_preferred_over_stealing(self, machine):
        """A core with local work takes it LIFO before raiding others."""
        g = TaskGraph()
        r0 = g.add("r0", TaskCost(flops=1e9))
        r1 = g.add("r1", TaskCost(flops=1e9))
        # Each root spawns one child; with 2 cores, each child should
        # run on its creator's core (no steals needed).
        g.add("k0", TaskCost(flops=1e9), deps=[r0], created_by=r0)
        g.add("k1", TaskCost(flops=1e9), deps=[r1], created_by=r1)
        sched = Scheduler(machine, threads=2, policy="steal").run(g.to_arena())
        assert sched.stats.steals == 0
        assert sched.stats.migrations == 0


class TestMultiSocketL3:
    def _dual_socket(self):
        from dataclasses import replace

        from repro.machine import haswell_e3_1225
        from repro.machine.topology import MachineTopology, SocketSpec, CoreSpec

        m = haswell_e3_1225()
        topo = MachineTopology((SocketSpec(2, CoreSpec()), SocketSpec(2, CoreSpec())))
        return replace(m, topology=topo)

    def test_l3_bandwidth_is_per_socket(self, machine):
        """Two L3-heavy tasks split one socket's LLC bandwidth, but get
        a full domain each when placed on different sockets."""
        dual = self._dual_socket()
        nbytes = dual.l3_bandwidth  # one second of L3 traffic each
        g = TaskGraph()
        g.add("a", TaskCost(flops=1, bytes_l3=nbytes))
        g.add("b", TaskCost(flops=1, bytes_l3=nbytes))
        # 2 threads on ONE socket (cores 0, 1): contend -> ~2 s.
        same = Scheduler(dual, threads=2).run(g.to_arena())
        assert same.makespan == pytest.approx(2.0, rel=1e-6)
        # 4 threads (both sockets): FIFO puts the two tasks on cores
        # 0 and 1... so force separation with 3 threads: core 2 is on
        # socket 1. With 3 workers the two tasks land on cores 2 and 1?
        # Dispatch picks free_cores[-1] first = core 0, then core 1.
        # Instead compare against the single-socket 4-core machine.
        quad = Scheduler(machine, threads=2).run(g.to_arena())
        assert quad.makespan == pytest.approx(2.0, rel=1e-6)

    def test_cross_socket_placement_doubles_l3_throughput(self):
        """With one worker per socket, each task owns a full LLC."""
        from dataclasses import replace

        dual = self._dual_socket()
        # 1 core per socket: threads=2 maps to (s0c0, s0c1)... the
        # socket-major order gives cores 0,1 on socket 0.  Build a
        # 1-core-per-socket topology instead.
        from repro.machine.topology import MachineTopology, SocketSpec, CoreSpec

        spread = replace(
            dual,
            topology=MachineTopology((SocketSpec(1, CoreSpec()), SocketSpec(1, CoreSpec()))),
        )
        nbytes = spread.l3_bandwidth
        g = TaskGraph()
        g.add("a", TaskCost(flops=1, bytes_l3=nbytes))
        g.add("b", TaskCost(flops=1, bytes_l3=nbytes))
        sched = Scheduler(spread, threads=2).run(g.to_arena())
        assert sched.makespan == pytest.approx(1.0, rel=1e-6)

    def test_dram_still_machine_wide(self):
        """Memory channels remain shared across sockets."""
        from dataclasses import replace

        from repro.machine.topology import MachineTopology, SocketSpec, CoreSpec

        dual = self._dual_socket()
        spread = replace(
            dual,
            topology=MachineTopology((SocketSpec(1, CoreSpec()), SocketSpec(1, CoreSpec()))),
        )
        nbytes = spread.dram_bandwidth
        g = TaskGraph()
        g.add("a", TaskCost(flops=1, bytes_dram=nbytes))
        g.add("b", TaskCost(flops=1, bytes_dram=nbytes))
        sched = Scheduler(spread, threads=2).run(g.to_arena())
        assert sched.makespan == pytest.approx(2.0, rel=1e-6)
