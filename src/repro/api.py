"""The stable public facade: ``repro.api``.

One import gives a user everything the paper reproduction exposes::

    from repro.api import Study, RunOptions, haswell_e3_1225
    from repro.core import table3_power

    run = Study(sizes=(512, 1024)).run(RunOptions(parallel=4, trace="out.json"))
    print(table3_power(run.result).to_ascii())
    print(run.phase_summary().to_ascii())

Design rules (CONTRIBUTING.md "Deprecation policy"):

* **Construction** is configuration: :class:`Study` collects the
  machine, algorithm set and matrix knobs.
* **Execution** is policy: :class:`RunOptions` collects the per-run
  choices (event kernel, process fan-out, tracing, store);
  :meth:`Study.run` is the one way to run a study.
* Deprecated entry points keep working behind ``DeprecationWarning``
  shims for one minor release; this module never calls one itself.

:class:`Study`, :class:`RunOptions` and :class:`StudyRun` live in
:mod:`repro.core.study`; this module re-exports them.
"""

from __future__ import annotations

from .algorithms import MatmulAlgorithm
from .distributed import (
    ClusterSpec,
    NetRunResult,
    NetworkConfig,
    NetworkSweep,
    NetworkSweepResult,
    Topology,
)
from .core.study import (
    PAPER_SIZES,
    PAPER_THREADS,
    RunOptions,
    Study,
    StudyConfig,
    StudyResult,
    StudyRun,
)
from .machine.specs import (
    MachineSpec,
    dual_socket_haswell,
    generic_smp,
    haswell_e3_1225,
)
from .service.cells import StudyRequest
from .service.service import ServiceConfig, StudyService
from .sim.engine import Engine
from .sim.measurement import RunMeasurement

__all__ = [
    "ClusterSpec",
    "Engine",
    "MachineSpec",
    "MatmulAlgorithm",
    "NetRunResult",
    "NetworkConfig",
    "NetworkSweep",
    "NetworkSweepResult",
    "PAPER_SIZES",
    "PAPER_THREADS",
    "RunMeasurement",
    "RunOptions",
    "ServiceConfig",
    "Study",
    "StudyConfig",
    "StudyRequest",
    "StudyResult",
    "StudyRun",
    "StudyService",
    "Topology",
    "available_engines",
    "dual_socket_haswell",
    "generic_smp",
    "haswell_e3_1225",
]


def available_engines() -> dict[str, tuple[bool, str]]:
    """Probe every event kernel: ``{name: (usable, detail)}``.

    ``reference`` and ``fast`` are pure Python/numpy and always usable;
    ``compiled`` needs a working C toolchain (or an already-compiled
    kernel in the JIT cache) and reports *why* when it cannot run.
    The same probe backs the ``repro engines`` subcommand.
    """
    from .runtime.compiledpath import compiled_available

    ok, reason = compiled_available()
    return {
        "reference": (True, "scalar oracle (pure Python)"),
        "fast": (True, "vectorized numpy kernel"),
        "compiled": (ok, reason if reason else "ready"),
    }
