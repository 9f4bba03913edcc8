"""The JIT-compiled event kernel: identity, fallback, and strictness.

The compiled C sweep transcribes the fast kernel's float arithmetic in
identical operand order (and is built with ``-ffp-contract=off``), so
against ``engine="fast"`` the contract is *bit identity* — equal
makespans, equal raw interval rows, equal records and statistics — not
merely tolerance agreement.  The tolerance contract against the
reference engine is inherited from the fast kernel and covered by the
verify harness's ``compiled_engine`` family.

Availability semantics mirror the shm transport's (PR 5):

* ``Scheduler(engine="compiled")`` on a host without a toolchain is a
  hard ``ConfigurationError`` — the caller explicitly asked.
* ``REPRO_ENGINE=compiled`` (an environment *preference*) degrades to
  the fast engine with a once-per-process ``RuntimeWarning`` and a
  counted ``engine.compiled_fallbacks``.
* An executed object graph schedules on the C kernel like any other:
  scheduling never runs closures, numerics replay the schedule after.
"""

import pickle

import numpy as np

import pytest

from repro.machine import generic_smp, haswell_e3_1225
from repro.machine.specs import dual_socket_haswell
from repro.runtime import compiledpath as cp
from repro.runtime import plans
from repro.runtime.cost import TaskCost
from repro.runtime.scheduler import ENGINES, Scheduler, default_engine
from repro.runtime.task import TaskGraph
from repro.util.errors import ConfigurationError, SchedulingError

from .test_fastpath import POLICIES, random_dag, wide_graph

requires_cc = pytest.mark.skipif(
    not cp.compiled_available()[0],
    reason=f"compiled engine unavailable: {cp.compiled_available()[1]}",
)


def _run(machine, graph, policy, threads, engine):
    return Scheduler(
        machine, threads, policy, engine=engine
    ).run(graph)


def assert_bit_identical(fast, comp):
    """The compiled schedule must equal the fast one bit-for-bit."""
    assert comp.makespan == fast.makespan
    assert len(comp.records) == len(fast.records)
    for f, c in zip(fast.records, comp.records):
        assert (f.tid, f.name, f.core, f.start, f.end) == (
            c.tid, c.name, c.core, c.start, c.end
        )
    assert len(comp.intervals) == len(fast.intervals)
    for f, c in zip(fast.intervals, comp.intervals):
        assert f == c
    assert len(comp.timelines) == len(fast.timelines)
    for f, c in zip(fast.timelines, comp.timelines):
        assert (f.core, f.busy, f.horizon) == (c.core, c.busy, c.horizon)
    assert comp.stats == fast.stats


# ---------------------------------------------------------------------------
# differential identity


@requires_cc
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_bit_identical_wide(machine, policy, threads):
    graph = wide_graph()
    fast = _run(machine, graph, policy, threads, "fast")
    comp = _run(machine, graph, policy, threads, "compiled")
    assert_bit_identical(fast, comp)


@requires_cc
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_bit_identical_random_dag(machine, policy, seed):
    graph = random_dag(seed)
    for threads in (1, 2, 3, 4):
        fast = _run(machine, graph, policy, threads, "fast")
        comp = _run(machine, graph, policy, threads, "compiled")
        assert_bit_identical(fast, comp)


@requires_cc
@pytest.mark.parametrize("policy", POLICIES)
def test_bit_identical_dual_socket(policy):
    """Two sockets: the per-socket L3 repricing path in C."""
    machine = dual_socket_haswell()
    graph = random_dag(11, n=200)
    for threads in (2, 4, 8):
        fast = _run(machine, graph, policy, threads, "fast")
        comp = _run(machine, graph, policy, threads, "compiled")
        assert_bit_identical(fast, comp)


@requires_cc
@pytest.mark.parametrize("policy", POLICIES)
def test_bit_identical_many_cores(policy):
    """Above the fast kernel's numpy threshold (24 cores = 120 seat
    entries) the C kernel must still match the numpy event step."""
    machine = generic_smp(cores=24)
    graph = random_dag(5, n=300)
    fast = _run(machine, graph, policy, 24, "fast")
    comp = _run(machine, graph, policy, 24, "compiled")
    assert_bit_identical(fast, comp)


@requires_cc
@pytest.mark.parametrize("policy", POLICIES)
def test_bit_identical_strassen_arena(machine, policy):
    """A real columnar arena lowering through the CSR plan path."""
    from repro.algorithms import StrassenWinograd

    arena = StrassenWinograd(machine).build_arena(256, 4).graph
    fast = _run(machine, arena, policy, 4, "fast")
    comp = _run(machine, arena, policy, 4, "compiled")
    assert_bit_identical(fast, comp)


@requires_cc
def test_zero_cost_only(machine):
    g = TaskGraph("zeros")
    for i in range(20):
        g.add(f"z{i}", TaskCost(), deps=[i - 1] if i else [])
    for policy in POLICIES:
        fast = _run(machine, g, policy, 2, "fast")
        comp = _run(machine, g, policy, 2, "compiled")
        assert_bit_identical(fast, comp)
        assert comp.makespan == 0.0


# ---------------------------------------------------------------------------
# plan bundle caching


@requires_cc
def test_plan_bundle_cached_and_dropped_from_pickles(machine):
    g = wide_graph(30)
    sched = Scheduler(machine, 2, engine="compiled")
    sched.run(g)
    # A cost-only object graph reaches the bundle through its arena
    # twin; both are cached and reused across runs.
    arena = plans.arena_of(g)
    bundle = getattr(arena, plans._PLAN_ATTR)
    sched.run(g)
    assert plans.arena_of(g) is arena
    assert getattr(arena, plans._PLAN_ATTR) is bundle  # reused, not rebuilt

    g.add("late", TaskCost(flops=1e6), deps=[0])
    fast = Scheduler(machine, 2, engine="fast").run(g)
    comp = sched.run(g)
    grown = getattr(plans.arena_of(g), plans._PLAN_ATTR)
    assert grown is not bundle and grown.n == 31  # regrown for the new task
    assert_bit_identical(fast, comp)
    clone = pickle.loads(pickle.dumps(plans.arena_of(g)))
    assert getattr(clone, plans._PLAN_ATTR, None) is None


@requires_cc
def test_arena_pickle_drops_plan_bundle(machine):
    from repro.algorithms import StrassenWinograd

    arena = StrassenWinograd(machine).build_arena(128, 2).graph
    Scheduler(machine, 2, engine="compiled").run(arena)
    Scheduler(machine, 2, engine="fast").run(arena)
    # One cache attribute serves both kernels.
    bundle = getattr(arena, plans._PLAN_ATTR)
    assert bundle.seat_plan is not None
    assert [k for k in vars(arena) if "plan" in k] == [plans._PLAN_ATTR]
    clone = pickle.loads(pickle.dumps(arena))
    assert getattr(clone, plans._PLAN_ATTR, None) is None


# ---------------------------------------------------------------------------
# availability, fallback, strictness


def test_forced_compiled_without_toolchain_errors(machine, monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", "none")
    with pytest.raises(ConfigurationError, match="engine 'compiled'"):
        Scheduler(machine, 2, engine="compiled")


def test_invalid_toolchain_env_errors(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", "llvm")
    with pytest.raises(ConfigurationError, match="REPRO_COMPILED_TOOLCHAIN"):
        cp.compiled_available()


def test_unknown_engine_name_errors(machine):
    with pytest.raises(ConfigurationError, match="engine"):
        Scheduler(machine, 2, engine="turbo")


def test_env_preference_degrades_with_warning(monkeypatch):
    """REPRO_ENGINE=compiled is a preference, not a demand: without a
    toolchain it resolves to 'fast', warning once and counting."""
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", "none")
    before = cp._COMPILED_FALLBACKS.value
    with pytest.warns(RuntimeWarning, match="compiled event kernel"):
        assert default_engine() == "fast"
    assert cp._COMPILED_FALLBACKS.value == before + 1


@requires_cc
def test_executed_graph_runs_compiled_without_fallback(machine):
    """An executed object graph (with closures) schedules on the C
    kernel like any other graph — no fallback, no closures run — and
    its replayed numerics verify."""
    from repro.algorithms import StrassenWinograd
    from repro.runtime.replay import replay

    build = StrassenWinograd(machine).build(64, 2, seed=0)
    before = cp._COMPILED_FALLBACKS.value
    comp = Scheduler(machine, 2, engine="compiled").run(build.graph)
    assert cp._COMPILED_FALLBACKS.value == before
    assert np.all(build.c == 0.0)
    fast = Scheduler(machine, 2, engine="fast").run(
        StrassenWinograd(machine).build(64, 2, seed=0).graph
    )
    assert comp.makespan == fast.makespan
    replay(build.graph, comp.start_order())
    assert build.verify().ok


@requires_cc
def test_jit_failure_falls_back(machine, monkeypatch):
    """A compile/load failure inside run is recoverable: counted
    fallback to the fast kernel, identical results."""
    def boom():
        raise cp._JitError("simulated compile failure")

    monkeypatch.setattr(cp, "_load_kernel", boom)
    before = cp._COMPILED_FALLBACKS.value
    g = wide_graph(20)
    sched = Scheduler(machine, 2, engine="compiled")
    with pytest.warns(RuntimeWarning, match="simulated compile failure"):
        comp = sched.run(g)
    assert cp._COMPILED_FALLBACKS.value == before + 1
    fast = Scheduler(machine, 2, engine="fast").run(g)
    assert comp.makespan == fast.makespan


def test_record_fallback_warns_once_and_counts():
    before = cp._COMPILED_FALLBACKS.value
    with pytest.warns(RuntimeWarning, match="compiled event kernel"):
        cp.record_fallback("test reason")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a second warning would raise
        cp.record_fallback("again")
    assert cp._COMPILED_FALLBACKS.value == before + 2
    cp.reset_fallback_warning()
    with pytest.warns(RuntimeWarning, match="compiled event kernel"):
        cp.record_fallback("re-armed")


# ---------------------------------------------------------------------------
# scheduling errors must propagate, never fall back


@requires_cc
def test_zero_rate_message_parity(machine):
    """A workload defect (demand with zero service rate) raises the
    same SchedulingError from both kernels — the compiled engine must
    not mask it behind a fallback."""
    g = TaskGraph("bad")
    g.add("bad/task", TaskCost(bytes_l1=100.0))

    def run(engine):
        sched = Scheduler(machine, 2, engine=engine)
        sched._l1_bw = 0.0  # surgery: the cost API validates rates > 0
        with pytest.raises(SchedulingError) as exc:
            sched.run(g)
        return str(exc.value)

    assert run("fast") == run("compiled")
    assert "zero service rate" in run("fast")


# ---------------------------------------------------------------------------
# toolchain plumbing


@requires_cc
def test_warm_compile_loads_kernel(tmp_path, monkeypatch):
    """warm_compile() into a fresh cache dir compiles, caches, and a
    second call hits the cached .so (same mtime)."""
    import os

    monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
    monkeypatch.setattr(cp, "_kernel", None)
    monkeypatch.setattr(cp, "_kernel_error", None)
    assert cp.warm_compile() is True
    sos = [f for f in os.listdir(tmp_path) if f.endswith(".so")]
    assert len(sos) == 1
    mtime = (tmp_path / sos[0]).stat().st_mtime_ns
    monkeypatch.setattr(cp, "_kernel", None)
    assert cp.warm_compile() is True
    assert (tmp_path / sos[0]).stat().st_mtime_ns == mtime


def test_engine_registry_and_probe():
    assert ENGINES == ("reference", "fast", "compiled")
    ok, reason = cp.compiled_available()
    assert isinstance(ok, bool) and isinstance(reason, str)
    assert cp.jit_cache_dir()
    if ok:
        assert cp.compiled_cc()


@requires_cc
def test_sweep_counter_ticks(machine):
    before = cp._CSWEEPS.value
    comp = _run(machine, wide_graph(40), "fifo", 4, "compiled")
    assert cp._CSWEEPS.value == before + len(comp.intervals)
