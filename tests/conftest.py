"""Shared fixtures for the repro test suite."""

import pytest

from repro.machine import haswell_e3_1225, generic_smp
from repro.runtime.replay import replay
from repro.sim import Engine


@pytest.fixture(scope="session")
def machine():
    """The paper's platform spec (immutable; safe to share)."""
    return haswell_e3_1225()


@pytest.fixture(scope="session")
def big_machine():
    """A larger generic SMP for sweeps beyond four cores."""
    return generic_smp(cores=16)


@pytest.fixture()
def engine(machine):
    return Engine(machine)


@pytest.fixture()
def run_numerics(machine):
    """Simulate a graph on the paper machine, then replay its compute
    closures in the schedule's start order; returns the measurement."""

    def run(graph, threads, policy="fifo"):
        measurement, schedule = Engine(machine).simulate(graph, threads, policy)
        replay(graph, schedule.start_order())
        return measurement

    return run


@pytest.fixture(autouse=True)
def _fresh_fallback_warning():
    """Isolate the shm/compiled fallback warn-once latches between tests.

    The latches are process-global: without this reset, whichever test
    first triggers a fallback would silence the warning for every
    later test and make warning assertions order-dependent.
    """
    from repro.runtime.compiledpath import (
        reset_fallback_warning as reset_compiled,
    )
    from repro.runtime.shm import reset_fallback_warning

    reset_fallback_warning()
    reset_compiled()
    yield
    reset_fallback_warning()
    reset_compiled()


# Hypothesis profiles: default stays fast; REPRO_THOROUGH=1 widens the
# search for nightly-style runs.
import os

from hypothesis import settings

settings.register_profile("thorough", max_examples=300, deadline=None)
settings.register_profile("default", max_examples=50, deadline=None)
settings.load_profile(
    "thorough" if os.environ.get("REPRO_THOROUGH") == "1" else "default"
)
