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

Quickstart (the stable facade is :mod:`repro.api`)::

    from repro.api import Study, RunOptions
    from repro.core import table3_power

    run = Study(sizes=(512, 1024)).run(RunOptions(parallel=4, trace="out.json"))
    print(table3_power(run.result).to_ascii())
    print(run.phase_summary().to_ascii())
"""

from .api import RunOptions, Study, StudyRun
from .core.study import PAPER_SIZES, PAPER_THREADS, StudyConfig, StudyResult
from .machine.specs import MachineSpec, generic_smp, haswell_e3_1225
from .sim.engine import Engine
from .sim.measurement import RunMeasurement

__version__ = "1.2.0"

__all__ = [
    "Engine",
    "MachineSpec",
    "PAPER_SIZES",
    "PAPER_THREADS",
    "RunMeasurement",
    "RunOptions",
    "Study",
    "StudyConfig",
    "StudyResult",
    "StudyRun",
    "__version__",
    "generic_smp",
    "haswell_e3_1225",
]
