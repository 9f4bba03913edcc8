"""The ``python -m repro verify`` driver.

One entry point ties the whole harness together: seed-pinned random
cases from :mod:`repro.testing.generators`, the invariant library from
:mod:`repro.testing.invariants`, the differential oracles from
:mod:`repro.testing.oracle`, and the RAPL fault scenarios from
:mod:`repro.testing.faults`.

Budget discipline: the cheap per-case checks (single-run invariants +
the bit-exact fast-vs-reference differential) run for *every* case;
the expensive families are interleaved — an Eq. 8 bound cell every
``bounds_every`` cases, a templated-vs-object lowering differential
every ``lowering_every`` (the columnar arena stamping must be bit-identical
to the object lowering of :mod:`repro.testing.lowering`) paired with a
numerics-program differential (the stamped numerics must reproduce the
sequential fast matmul byte for byte, in the start and the depth-first
order), a three-way kernel differential every ``compiled_every``
(``fast`` and the JIT-compiled C sweep against ``reference``, bit for
bit — probed once up front and silently absent on hosts without a
toolchain, so ``--require compiled_engine`` makes its coverage
mandatory), a network-simulation differential every ``network_every``
(arena-lowered event sweep vs per-rank object loop vs the closed-form
BSP/collective models, all bit-exact, plus the Eq. 8 schedule floor),
an Eq. 5/6 scaling sweep every ``scaling_every``, a full
serial-vs-parallel study differential every ``study_every``, and the
bound algebra + fault-mode scenarios once per run.  Because every
family keys off the *case seed* (``base_seed + index``) and every
family fires at index 0, any failure reported as seed *S* reproduces
completely with::

    python -m repro verify --cases 1 --seed S

On failure the graph case is greedily shrunk
(:func:`~repro.testing.generators.shrink_graph_case`) before being
reported, so the counterexample the user sees is minimal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..algorithms.registry import make_algorithm
from ..sim.engine import Engine
from ..sim.measurement import RunMeasurement
from ..runtime.scheduler import Scheduler
from .faults import check_fault_modes
from .generators import (
    AlgorithmCase,
    GraphCase,
    LoweringCase,
    NetworkCase,
    ScalingCase,
    gen_algorithm_case,
    gen_graph_case,
    gen_lowering_case,
    gen_network_case,
    gen_numerics_case,
    gen_scaling_case,
    shrink_graph_case,
)
from .invariants import (
    Violation,
    check_bound_algebra,
    check_comm_bounds,
    check_ep_scaling,
    check_measurement,
    check_network_bounds,
)
from .oracle import (
    differential_engine_check,
    differential_lowering_check,
    differential_network_check,
    differential_numerics_check,
    differential_service_check,
    differential_study_check,
)

__all__ = ["Counterexample", "VerifyReport", "run_verify", "verify_case"]

#: Stop after this many distinct failing cases (each already shrunk).
MAX_COUNTEREXAMPLES = 5


@dataclass(frozen=True)
class Counterexample:
    """One failing, already-shrunk case with its reproduction command."""

    check: str
    seed: int
    detail: str
    case_description: str
    command: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FAIL [{self.check}] {self.detail}\n"
            f"     case: {self.case_description}\n"
            f"     repro: {self.command}"
        )


@dataclass
class VerifyReport:
    """Outcome of one ``repro verify`` run."""

    cases: int
    seed: int
    checks: dict[str, int] = field(default_factory=dict)
    counterexamples: list[Counterexample] = field(default_factory=list)
    fault_modes: dict[str, str] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        lines = [
            f"verify: {self.cases} cases from seed {self.seed} "
            f"in {self.elapsed_s:.1f}s"
        ]
        for name in sorted(self.checks):
            lines.append(f"  {name:<24} {self.checks[name]} checks")
        if self.fault_modes:
            modes = ", ".join(
                f"{m}={r}" for m, r in sorted(self.fault_modes.items())
            )
            lines.append(f"  rapl fault modes: {modes}")
        if self.ok:
            lines.append("  all invariants held")
        else:
            lines.append(f"  {len(self.counterexamples)} counterexample(s):")
            for ce in self.counterexamples:
                lines.extend("  " + ln for ln in str(ce).splitlines())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# per-case verification


def verify_case(
    case: GraphCase,
    mutator: Callable[[RunMeasurement], RunMeasurement] | None = None,
) -> list[Violation]:
    """All cheap checks for one graph case: simulate on the fast kernel,
    run the single-run invariants, and replay through the reference
    kernel.

    *mutator* (used by the mutation smoke check and the harness's own
    tests) corrupts the measurement after simulation but before invariant
    checking — a correct invariant library must flag the corruption.
    Exceptions are folded into violations so shrinking sees a uniform
    failure predicate.
    """
    try:
        scheduler = Scheduler(
            case.machine, case.threads, case.policy, engine="fast"
        )
        schedule = scheduler.run(case.arena)
        measurement = Engine(case.machine).measure(schedule, label=case.graph.name)
        if mutator is not None:
            measurement = mutator(measurement)
        violations = check_measurement(
            case.machine, case.graph, case.threads, schedule, measurement
        )
        violations += differential_engine_check(case, ("fast",))
        return violations
    except Exception as exc:  # pragma: no cover - only on defects
        return [Violation("exception", f"{type(exc).__name__}: {exc}")]


def _verify_algorithm_case(case: AlgorithmCase) -> list[Violation]:
    """One Eq. 8 bound cell: lower cost-only, simulate, check totals."""
    alg = make_algorithm(case.algorithm, case.machine)
    build = alg.build_cached(case.n, case.threads)
    measurement = Engine(case.machine).run(
        build.graph, case.threads, label=case.describe()
    )
    return check_comm_bounds(
        case.machine,
        case.algorithm,
        case.n,
        case.threads,
        measurement,
        flop_count=alg.flop_count(case.n),
    )


def _verify_network_case(case: NetworkCase) -> list[Violation]:
    """One network-simulation cell: the exact-equality oracles (arena vs
    object sweep, BSP bridge, collective closed form, batched vs scalar
    lowering) plus the schedule-sanity invariants and the Eq. 8 floor.
    The object sweep equals the arena one bit for bit, so one bound
    check covers both."""
    from ..distributed import simulate

    violations = differential_network_check(case)
    result = simulate(case.cluster, case.algorithm, case.n, case.ranks, case.config)
    return violations + check_network_bounds(result)


def _verify_scaling_case(case: ScalingCase) -> list[Violation]:
    """One Eq. 5/6 sweep: simulate the thread ladder, check consistency."""
    alg = make_algorithm(case.algorithm, case.machine)
    engine = Engine(case.machine)
    series = []
    for p in case.threads:
        build = alg.build_cached(case.n, p)
        series.append(
            (p, engine.run(build.graph, p, label=f"p={p}"))
        )
    return check_ep_scaling(series)


# ---------------------------------------------------------------------------
# the driver


def run_verify(
    cases: int = 200,
    seed: int = 0,
    *,
    max_tasks: int = 40,
    bounds_every: int = 10,
    lowering_every: int = 10,
    compiled_every: int = 10,
    network_every: int = 10,
    scaling_every: int = 25,
    study_every: int = 50,
    service_every: int = 100,
    progress: Callable[[str], None] | None = None,
    mutator: Callable[[RunMeasurement], RunMeasurement] | None = None,
) -> VerifyReport:
    """Run the full harness over *cases* seeds starting at *seed*."""
    from ..runtime.compiledpath import compiled_available

    t0 = time.perf_counter()
    report = VerifyReport(cases=cases, seed=seed)
    # Probed once: on a host without a C toolchain the compiled family
    # never ticks, so ``--require compiled_engine`` fails — by design.
    compiled_ok, _ = compiled_available()

    def tick(name: str) -> None:
        report.checks[name] = report.checks.get(name, 0) + 1

    def record(
        check: str, case_seed: int, violations: Sequence[Violation], desc: str
    ) -> None:
        for v in violations:
            report.counterexamples.append(
                Counterexample(
                    check=v.invariant,
                    seed=case_seed,
                    detail=v.detail,
                    case_description=desc,
                    command=f"python -m repro verify --cases 1 --seed {case_seed}",
                )
            )
            break  # one counterexample per failing case keeps reports short

    # Once per run: bound algebra + RAPL fault scenarios.
    tick("bound_algebra")
    record("bound_algebra", seed, check_bound_algebra(seed), "algebra sample")
    report.fault_modes, fault_violations = check_fault_modes(seed)
    tick("rapl_faults")
    record("rapl_faults", seed, fault_violations, "scripted RAPL fault scenarios")

    for i in range(cases):
        if report.counterexamples and len(report.counterexamples) >= MAX_COUNTEREXAMPLES:
            break
        case_seed = seed + i

        # Cheap checks, every case.
        case = gen_graph_case(case_seed, max_tasks=max_tasks)
        tick("graph_invariants")
        violations = verify_case(case, mutator)
        if violations:
            shrunk = shrink_graph_case(
                case, lambda c: bool(verify_case(c, mutator))
            )
            final = verify_case(shrunk, mutator) or violations
            record("graph_invariants", case_seed, final, shrunk.describe())

        # Interleaved expensive families (all fire at i == 0, so a
        # single-case rerun at any reported seed covers everything).
        if i % bounds_every == 0:
            ac = gen_algorithm_case(case_seed)
            tick("comm_bounds")
            record("comm_bounds", case_seed, _verify_algorithm_case(ac), ac.describe())
        if i % lowering_every == 0:
            lc = gen_lowering_case(case_seed)
            tick("arena_lowering")
            record(
                "arena_lowering",
                case_seed,
                differential_lowering_check(lc),
                lc.describe(),
            )
            xc = gen_numerics_case(case_seed)
            tick("numerics_program")
            record(
                "numerics_program",
                case_seed,
                differential_numerics_check(xc),
                xc.describe(),
            )
        if compiled_ok and i % compiled_every == 0:
            tick("compiled_engine")
            record(
                "compiled_engine",
                case_seed,
                differential_engine_check(case),
                case.describe(),
            )
        if i % network_every == 0:
            nc = gen_network_case(case_seed)
            tick("network_sim")
            record("network_sim", case_seed, _verify_network_case(nc), nc.describe())
        if i % scaling_every == 0:
            sc = gen_scaling_case(case_seed)
            tick("ep_scaling")
            record("ep_scaling", case_seed, _verify_scaling_case(sc), sc.describe())
        if i % study_every == 0:
            tick("study_differential")
            record(
                "study_differential",
                case_seed,
                differential_study_check(case_seed),
                f"serial-vs-parallel study matrix (seed {case_seed})",
            )
        if i % service_every == 0:
            tick("study_service")
            record(
                "study_service",
                case_seed,
                differential_service_check(case_seed),
                f"served-vs-serial study matrix (seed {case_seed})",
            )
        if progress is not None and (i + 1) % 25 == 0:
            progress(f"{i + 1}/{cases} cases, {len(report.counterexamples)} failures")

    report.elapsed_s = time.perf_counter() - t0
    return report
