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
:mod:`repro.core.study`; this module re-exports them.  Every re-export
resolves on first use (:mod:`repro._lazy`), so importing this module is
cheap: the study stack loads with the first :class:`Study`, the service
with the first :class:`StudyService`.
"""

from __future__ import annotations

from ._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".algorithms.base": ("MatmulAlgorithm",),
    ".core.study": ("PAPER_SIZES", "PAPER_THREADS", "RunOptions", "Study", "StudyConfig",
                    "StudyResult", "StudyRun"),
    ".distributed.netsim": ("NetRunResult", "NetworkConfig", "NetworkSweep",
                            "NetworkSweepResult"),
    ".distributed.network": ("ClusterSpec", "Topology"),
    ".machine.specs": ("MachineSpec", "dual_socket_haswell", "generic_smp",
                       "haswell_e3_1225"),
    ".service.client": ("StudyRequest",),
    ".service.service": ("ServiceConfig", "StudyService"),
    ".sim.engine": ("Engine",),
    ".sim.measurement": ("RunMeasurement",),
})
__all__ += ["available_engines"]


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
