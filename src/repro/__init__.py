"""repro — reproduction of *Communication Avoiding Power Scaling*
(Yong Chen & John Leidel, ICPP Workshops 2015, DOI 10.1109/ICPPW.2015.26).

The package provides:

* :mod:`repro.core` — the paper's contribution: the energy-performance
  (EP) scaling model (Eqs. 1-6), the CAPS communication bound (Eq. 8),
  the Strassen crossover model (Eq. 9) and the full study driver;
* :mod:`repro.machine` — a simulated SMP platform (the paper's Haswell
  E3-1225 ships as :func:`repro.machine.haswell_e3_1225`);
* :mod:`repro.runtime` — an OpenMP-like simulated task runtime;
* :mod:`repro.power` — RAPL MSR emulation, a PAPI-like API, power traces;
* :mod:`repro.sim` — the execution engine and measurements;
* :mod:`repro.algorithms` — blocked DGEMM, Strassen-Winograd and CAPS;
* :mod:`repro.linalg` — numerics, stability bounds, verification;
* :mod:`repro.distributed`, :mod:`repro.sparse` — the paper's §VIII
  future-work extensions (distributed-memory EP, sparse-format EP);
* :mod:`repro.reporting` — ASCII figures and table emission.

Every public name and subpackage resolves on first use (PEP 562,
:mod:`repro._lazy`): ``import repro`` loads no subsystem, and a command
imports only the modules it runs.

Quickstart (the stable facade is :mod:`repro.api`)::

    from repro.api import Study, RunOptions
    from repro.core import table3_power

    run = Study(sizes=(512, 1024)).run(RunOptions(parallel=4, trace="out.json"))
    print(table3_power(run.result).to_ascii())
    print(run.phase_summary().to_ascii())
"""

from ._lazy import lazy_exports

__version__ = "1.2.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core.study": ("PAPER_SIZES", "PAPER_THREADS", "RunOptions", "Study", "StudyConfig",
                    "StudyResult", "StudyRun"),
    ".machine.specs": ("MachineSpec", "generic_smp", "haswell_e3_1225"),
    ".sim.engine": ("Engine",),
    ".sim.measurement": ("RunMeasurement",),
})
__all__ += ["__version__"]
