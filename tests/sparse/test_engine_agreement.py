"""The sparse kernels' and block LU's arenas schedule alike on every
event kernel.

The OpenMP-built workloads (SpMV, SpMM, SpGEMM, block LU) reach the
kernels as arenas, as the dense lowerings do; ``fast`` and ``compiled``
must agree with the scalar ``reference`` oracle on them under the
differential oracle's contract."""

import pytest

from repro.algorithms.mixed import BlockLU
from repro.runtime.compiledpath import compiled_available
from repro.runtime.scheduler import Scheduler
from repro.sparse.generators import banded, power_law
from repro.sparse.spgemm import build_spgemm_graph
from repro.sparse.spmm import build_spmm_graph
from repro.sparse.spmv import build_spmv_graph
from repro.sparse.study import convert
from repro.testing.generators import POLICIES
from repro.testing.oracle import compare_schedules

ENGINES = [
    "fast",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            not compiled_available()[0],
            reason=f"compiled engine unavailable: {compiled_available()[1]}",
        ),
    ),
]


def _build(kind, machine, threads):
    if kind == "block-lu":
        return BlockLU(machine, block=32).build(128, threads, execute=False)
    pattern = power_law(96, avg_degree=4, alpha=1.6, seed=3)
    if kind == "spmv":
        return build_spmv_graph(
            convert(banded(96, 3, seed=1), "bsr"), machine, threads, repeats=3,
            execute=False,
        )
    if kind == "spmm":
        return build_spmm_graph(
            convert(pattern, "ell"), machine, threads, k=8, repeats=2, execute=False
        )
    csr = convert(pattern, "csr")
    return build_spgemm_graph(csr, csr, machine, threads, execute=False)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", ["spmv", "spmm", "spgemm", "block-lu"])
def test_engines_agree_with_reference(machine, kind, engine):
    for threads in (1, 2, 3, 4):
        arena = _build(kind, machine, threads).graph
        for policy in POLICIES:
            ref = Scheduler(machine, threads, policy, engine="reference").run(arena)
            got = Scheduler(machine, threads, policy, engine=engine).run(arena)
            assert compare_schedules(ref, got) == [], (threads, policy)
