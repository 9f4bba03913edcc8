"""Property-based correctness harness (machine-checked invariants).

The paper's model is built from algebraic identities — Eq. 3 energy
aggregation over power planes, Eq. 5/6 EP-scaling classification, the
Eq. 8 CAPS communication bound — and the simulator adds its own
conservation laws (work totals, critical-path floors, trace/accumulator
agreement).  This package turns those identities into a harness:

* :mod:`repro.testing.generators` — seed-pinned random generators for
  machines, task DAGs, scheduler policies and study matrices, with a
  deterministic greedy shrinker (Hypothesis strategies are layered on
  top when the library is available);
* :mod:`repro.testing.invariants` — the invariant library, run against
  every simulated case;
* :mod:`repro.testing.oracle` — differential oracles, asserted
  bit-for-bit: the ``fast`` and compiled event kernels vs
  ``reference``, the scalar spec they transcribe; ``parallel=N`` vs
  serial study execution; templated vs object lowering; and stamped
  numerics vs the sequential fast matmul;
* :mod:`repro.testing.taskgraph` — :class:`Task` / :class:`TaskGraph`,
  the object twin of the columnar arena: the generators' DAG shape and
  the scalar metric sweeps the arena's vectorized ones must equal;
* :mod:`repro.testing.lowering` — the task-at-a-time lowering of the
  dense algorithms the templated ``build_arena`` must equal;
* :mod:`repro.testing.netlowering` — the scalar reference network
  lowering the batched one must equal column for column, and the
  per-rank object sweep the arena sweep must equal bit for bit;
* :mod:`repro.testing.cachesim` — the trace-driven set-associative LRU
  cache simulator the analytical traffic models are cross-checked
  against;
* :mod:`repro.testing.faults` — fault injection for the simulated RAPL
  counters (wraparound, non-monotonic samples, dropped MSR reads, NaN
  power) against the hardened :class:`~repro.power.rapl.RaplReader`;
* :mod:`repro.testing.harness` — the ``python -m repro verify`` driver
  tying it all together, printing seed-reproducible shrunk
  counterexamples on failure.

CI and developers run the same entry point::

    python -m repro verify --cases 200 --seed 0
    python tools/verify.py --cases 200 --seed 0
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".faults": ("FaultyMsr", "check_fault_modes"),
    ".generators": ("POLICIES", "GraphCase", "NetworkCase", "NumericsCase",
                    "gen_algorithm_case", "gen_graph_case", "gen_machine", "gen_network_case",
                    "gen_numerics_case", "gen_scaling_case", "gen_study_config",
                    "shrink_graph_case"),
    ".harness": ("Counterexample", "VerifyReport", "run_verify", "verify_case"),
    ".invariants": ("Violation", "assert_no_violations", "check_bound_algebra",
                    "check_comm_bounds", "check_ep_scaling", "check_measurement",
                    "check_network_bounds"),
    ".oracle": ("compare_event_programs", "differential_engine_check",
                "differential_network_check", "differential_numerics_check",
                "differential_service_check", "differential_study_check"),
    ".taskgraph": ("Task", "TaskGraph"),
})
