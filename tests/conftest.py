"""Shared fixtures for the repro test suite."""

import pytest

from repro.api import Study
from repro.core.study import PAPER_SIZES, PAPER_THREADS
from repro.machine import haswell_e3_1225, generic_smp
from repro.runtime.replay import replay
from repro.sim import Engine


@pytest.fixture(scope="session")
def machine():
    """The paper's platform spec (immutable; safe to share)."""
    return haswell_e3_1225()


@pytest.fixture(scope="session")
def paper_result(machine):
    """The paper's execution matrix, once per session: the three paper
    algorithms x ``PAPER_SIZES`` x ``PAPER_THREADS`` (48 cells),
    cost-only on the platform's default engine.  A cell's times and
    energies do not depend on whether its numerics ran, so the paper's
    claims and the engine-version digests read this study."""
    return Study(
        machine, sizes=PAPER_SIZES, threads=PAPER_THREADS,
        execute_max_n=0, verify=False,
    ).run().result


@pytest.fixture(scope="session")
def small_result(machine):
    """A 12-cell cost-only study on the platform's default engine: the
    paper algorithms x n in {128, 256} x p in {1, 2}.  The engine guard
    digests it (its ``SIZES`` x ``THREADS``); the report and figure
    layout tests read it."""
    return Study(
        machine, sizes=(128, 256), threads=(1, 2),
        execute_max_n=0, verify=False,
    ).run().result


@pytest.fixture(scope="session")
def big_machine():
    """A larger generic SMP for sweeps beyond four cores."""
    return generic_smp(cores=16)


@pytest.fixture()
def engine(machine):
    return Engine(machine)


@pytest.fixture()
def run_numerics(machine):
    """Simulate a build's arena on the paper machine, then replay its
    compute closures in the schedule's start order; returns the
    measurement."""

    def run(build, threads, policy="fifo"):
        measurement, schedule = Engine(machine).simulate(build.graph, threads, policy)
        replay(build.graph, build.computes, schedule.start_order())
        return measurement

    return run


@pytest.fixture()
def run_program(machine):
    """Simulate a dense algorithm's cost-only lowering on the paper
    machine, then run its numerics program in the schedule's start
    order; returns the product (a ``BuildResult`` with ``a, b, c``)."""

    def run(alg, n, threads, seed=0, policy="fifo"):
        arena = alg.build_arena(n, threads).graph
        _, schedule = Engine(machine).simulate(arena, threads, policy)
        return alg.compute_product(
            n, threads, schedule.start_order(), arena, seed=seed
        )

    return run


@pytest.fixture(autouse=True)
def _fresh_fallback_warning():
    """Isolate the compiled-kernel fallback warn-once latch between tests.

    The latch is process-global: without this reset, whichever test
    first triggers a fallback would silence the warning for every
    later test and make warning assertions order-dependent.
    """
    from repro.runtime.compiledpath import reset_fallback_warning

    reset_fallback_warning()
    yield
    reset_fallback_warning()


@pytest.fixture(autouse=True)
def _empty_report_memo():
    """Start every test with an empty verification-report memo, so which
    numerics checks hit it does not depend on test order."""
    from repro.algorithms.base import numerics_memo

    numerics_memo().clear()
    yield


# Hypothesis profiles: default stays fast; REPRO_THOROUGH=1 widens the
# search for nightly-style runs.
import os

from hypothesis import settings

settings.register_profile("thorough", max_examples=300, deadline=None)
settings.register_profile("default", max_examples=50, deadline=None)
settings.load_profile(
    "thorough" if os.environ.get("REPRO_THOROUGH") == "1" else "default"
)
