"""The JIT-compiled event kernel: identity, fallback, and strictness.

The compiled C sweep transcribes the scalar ``reference`` spec's float
arithmetic in identical operand order (and is built with
``-ffp-contract=off``), as the fast kernel does, so against
``engine="fast"`` the contract is *bit identity* — equal record,
interval and busy columns and equal statistics.  The
verify harness's ``compiled_engine`` family checks all three kernels
against ``reference`` the same way.

Availability semantics: a kernel named explicitly is strict, the
platform default degrades gracefully.

* ``Scheduler(engine="compiled")`` on a host without a toolchain is a
  hard ``ConfigurationError`` — the caller explicitly asked.
* The default (no engine named) is picked by the platform: ``compiled``
  with a toolchain, else the fast engine with a once-per-process
  ``RuntimeWarning`` and a counted ``engine.compiled_fallbacks``.
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
from repro.runtime.openmp import OpenMP
from repro.testing.oracle import compare_schedules
from repro.util.errors import ConfigurationError, SchedulingError

from .test_fastpath import POLICIES, random_dag, wide_graph, wide_region

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
    assert compare_schedules(fast, comp) == []


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
    omp = OpenMP("zeros")
    for i in range(20):
        omp.task(f"z{i}", TaskCost(), deps=[i - 1] if i else [])
    g = omp.graph
    for policy in POLICIES:
        fast = _run(machine, g, policy, 2, "fast")
        comp = _run(machine, g, policy, 2, "compiled")
        assert_bit_identical(fast, comp)
        assert comp.makespan == 0.0


# ---------------------------------------------------------------------------
# plan bundle caching


@requires_cc
def test_plan_bundle_cached_and_dropped_from_pickles(machine):
    omp = wide_region(30)
    sched = Scheduler(machine, 2, engine="compiled")
    arena = omp.graph
    sched.run(arena)
    # The bundle is cached on the arena and reused across runs.
    bundle = getattr(arena, plans._PLAN_ATTR)
    sched.run(omp.graph)
    assert omp.graph is arena
    assert getattr(arena, plans._PLAN_ATTR) is bundle  # reused, not rebuilt

    omp.task("late", TaskCost(flops=1e6), deps=[0])
    fast = Scheduler(machine, 2, engine="fast").run(omp.graph)
    comp = sched.run(omp.graph)
    grown = getattr(omp.graph, plans._PLAN_ATTR)
    assert grown is not bundle and grown.n == 31  # regrown for the new task
    assert_bit_identical(fast, comp)
    clone = pickle.loads(pickle.dumps(omp.graph))
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


def test_default_degrades_with_warning(machine, monkeypatch):
    """The default is not a demand: without a toolchain it resolves to
    'fast', warning once and counting, while naming 'compiled' stays
    strict."""
    monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", "none")
    before = cp._COMPILED_FALLBACKS.value
    with pytest.warns(RuntimeWarning, match="compiled event kernel"):
        assert default_engine() == "fast"
    assert Scheduler(machine, 2).engine == "fast"
    assert cp._COMPILED_FALLBACKS.value == before + 2
    with pytest.raises(ConfigurationError, match="engine 'compiled'"):
        Scheduler(machine, 2, engine="compiled")


@requires_cc
def test_default_is_compiled_with_a_toolchain(machine):
    before = cp._COMPILED_FALLBACKS.value
    assert default_engine() == "compiled"
    assert Scheduler(machine, 2).engine == "compiled"
    assert cp._COMPILED_FALLBACKS.value == before


@requires_cc
def test_executed_graph_runs_compiled_without_fallback(machine):
    """An arena whose tasks have closures beside it schedules on the C
    kernel like any other — no fallback, no closures run — and its
    replayed numerics verify.  The buffers are planned for the
    order the closures replay in, so they are allocated only once the
    schedule exists; until then the closures' buffer list is empty."""
    from functools import partial

    from repro.algorithms import StrassenWinograd
    from repro.linalg.verify import verify_matmul
    from repro.runtime.replay import replay

    alg = StrassenWinograd(machine)
    graph = alg.build_arena(64, 2).graph
    program = alg.numerics_program(64, 2)
    a, b = alg.operands(64, seed=0)
    bufs: list = []
    computes = [partial(program.run_op, bufs, tid) for tid in range(len(graph))]
    before = cp._COMPILED_FALLBACKS.value
    comp = Scheduler(machine, 2, engine="compiled").run(graph)
    assert cp._COMPILED_FALLBACKS.value == before
    bufs.extend(program.allocate(a, b, comp.start_order()))
    assert np.all(bufs[2] == 0.0)
    fast = Scheduler(machine, 2, engine="fast").run(alg.build_arena(64, 2).graph)
    assert comp.makespan == fast.makespan
    replay(graph, computes, comp.start_order())
    assert verify_matmul(a, b, bufs[2], program.variant, program.cutoff).ok


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


@requires_cc
def test_schedule_span_names_the_kernel_that_ran(machine, monkeypatch):
    """The ``schedule`` span's ``engine`` is set after dispatch: a
    run-time JIT fallback reads ``fast``, not the kernel requested."""
    from repro.observability import trace

    def boom():
        raise cp._JitError("simulated compile failure")

    g = wide_graph(20)
    with trace.tracing() as tracer:
        Scheduler(machine, 2, engine="compiled").run(g)
        monkeypatch.setattr(cp, "_load_kernel", boom)
        with pytest.warns(RuntimeWarning, match="simulated compile failure"):
            Scheduler(machine, 2, engine="compiled").run(g)
        Scheduler(machine, 2, engine="reference").run(g)
    engines = [sp.attrs["engine"] for sp in tracer.find("schedule")]
    assert engines == ["compiled", "fast", "reference"]


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
    omp = OpenMP("bad")
    omp.task("bad/task", TaskCost(bytes_l1=100.0))
    g = omp.graph

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
