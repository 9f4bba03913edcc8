"""Command-line interface.

Exposes the library's studies and analyses as subcommands::

    repro describe                      # the simulated platform
    repro study --sizes 256 512        # the EP study, tables II-IV
    repro choose --n 512 --cap 35     # power-capped algorithm choice
    repro crossover [--channels 4]     # Eq. 9 analysis
    repro bounds --n 8192 --procs 64  # Eq. 8 analysis
    repro sparse --pattern banded      # SpMV storage-scheme study
    repro distributed --n 8192        # distributed EP study
    repro verify --cases 200 --seed 0  # property-based correctness harness

(also runnable as ``python -m repro ...``)
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path
from typing import Sequence

from .cliargs import (
    add_engine_arg,
    add_format_arg,
    add_machine_args,
    add_study_scale_args,
    add_trace_arg,
    check_store_path,
    check_trace_path,
    emit,
    get_format,
    machine_from_args,
)
from .core import (
    analyze_crossover,
    choice_table,
    communication_bound_words,
    select_under_power_cap,
    table2_slowdown,
    table3_power,
    table4_ep,
)
from .util.errors import ReproError
from .util.tables import TextTable

__all__ = ["main", "build_parser"]

# Backwards-compatible private aliases (the canonical home of these
# helpers is repro.cliargs, shared with tools/).
_machine_from_args = machine_from_args
_add_machine_args = add_machine_args
_emit = emit


class _scoped_tracing:
    """``--trace OUT.json`` plumbing for subcommands that drive a study
    themselves (sparse, distributed): scoped tracer + metrics snapshot,
    Chrome-trace written and phase summary printed on exit."""

    def __init__(self, out: "str | None", command: str):
        from .observability import trace as obtrace
        from .observability.metrics import registry

        check_trace_path(out)
        self._obtrace = obtrace
        self._registry = registry()
        self.out = out
        self.command = command
        self._scope = obtrace.tracing() if out else None
        self._snap = None

    def __enter__(self) -> "_scoped_tracing":
        if self._scope is not None:
            self._snap = self._registry.snapshot()
            self._scope.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._scope is None:
            return False
        self._scope.__exit__(exc_type, exc, tb)
        if exc_type is None:
            from .observability.export import phase_table, write_trace_json

            tracer = self._scope.tracer
            roots = [sp for sp in tracer.roots() if sp.finished]
            path = write_trace_json(
                self.out,
                tracer,
                metrics=self._registry.export_delta(self._snap),
                meta={
                    "command": self.command,
                    "parallel": 0,
                    "wall_s": sum(sp.duration_s for sp in roots),
                },
            )
            print()
            print("phase summary:")
            print(phase_table(tracer).to_ascii())
            print(f"wrote chrome://tracing file to {path}")
        return False


def cmd_describe(args) -> int:
    print(_machine_from_args(args).describe())
    return 0


def cmd_study(args) -> int:
    from .api import RunOptions, Study
    from .observability.metrics import registry as metrics_registry

    check_trace_path(args.trace)
    check_store_path(args.store)
    # Only a store that existed before the run has cells to resume.
    resuming = args.store is not None and Path(args.store).is_dir()
    study = Study(
        machine_from_args(args),
        sizes=tuple(args.sizes),
        threads=tuple(args.threads),
        execute_max_n=args.execute_max_n,
        verify=not args.no_verify,
    )
    snap = metrics_registry().snapshot()
    run = study.run(
        RunOptions(
            engine=args.engine,
            parallel=args.parallel,
            trace=bool(args.trace),
            store=args.store,
        )
    )
    if resuming:
        delta = metrics_registry().delta_since(snap)
        resumed = int(delta.get("study.cells_resumed", 0))
        total = len(run.result.runs)
        print(
            f"resumed {resumed}/{total} cells from {args.store} "
            f"({total - resumed} newly simulated)"
        )
        print()
    result = run.result
    fmt = get_format(args)
    for title, table in (
        ("Table II - average slowdown vs baseline", table2_slowdown(result)),
        ("Table III - average watts by thread count", table3_power(result)),
        ("Table IV - average energy performance", table4_ep(result)),
    ):
        print(title)
        print(emit(table, fmt))
        print()
    if args.figures:
        from .reporting import fig3_figure, fig4_figure, fig5_figure, fig6_figure, fig7_figure

        for builder in (fig3_figure, fig4_figure, fig5_figure, fig6_figure, fig7_figure):
            print(builder(result).render())
            print()
    if run.traced and args.trace:
        path = run.write_trace(args.trace, meta={"command": "repro study"})
        print("phase summary:")
        print(run.phase_summary().to_ascii())
        print(f"wrote chrome://tracing file to {path}")
    return 0


def cmd_engines(args) -> int:
    from .api import available_engines
    from .runtime.compiledpath import compiled_cc, jit_cache_dir
    from .runtime.scheduler import default_engine

    probes = available_engines()
    table = TextTable(["engine", "usable", "detail"])
    for name, (ok, detail) in probes.items():
        table.add_row(name, "yes" if ok else "no", detail)
    print(emit(table, get_format(args)))
    print()
    cc = compiled_cc()
    print(f"C compiler: {cc if cc else 'none found ($CC, cc, gcc, clang)'}")
    print(f"JIT cache:  {jit_cache_dir()}")
    print("numba:      not installed (compiled engine uses a C kernel)")
    with warnings.catch_warnings():
        # The table above already says why compiled is unavailable.
        warnings.simplefilter("ignore", RuntimeWarning)
        default = default_engine()
    print(f"default:    {default} (picked by the platform)")
    if not probes["compiled"][0]:
        print()
        print(
            "note: --engine compiled would fail; runs that name no engine "
            "fall back to 'fast' with identical results."
        )
    return 0


def cmd_choose(args) -> int:
    from .api import Study

    result = Study(
        machine_from_args(args),
        sizes=(args.n,),
        threads=tuple(args.threads),
        execute_max_n=0,
        verify=False,
    ).run().result
    print(f"operating points for n={args.n} (pareto-optimal marked *):")
    print(_emit(choice_table(result, args.n), get_format(args)))
    print()
    if args.cap is not None:
        pick = select_under_power_cap(result, args.n, args.cap, args.metric)
        if pick is None:
            print(f"no configuration fits a {args.cap} W {args.metric}-power cap")
            return 1
        print(
            f"best under {args.cap} W ({args.metric}): "
            f"{pick.algorithm} x {pick.threads} threads - "
            f"{pick.time_s:.4g} s at {pick.power(args.metric):.1f} W"
        )
    return 0


def cmd_crossover(args) -> int:
    machine = _machine_from_args(args)
    a = analyze_crossover(machine, efficiency=args.efficiency)
    table = TextTable(["quantity", "value"], ndigits=5)
    table.add_row("platform", machine.name)
    table.add_row("y (Mflop/s)", a.y_mflops)
    table.add_row("z (MB/s)", a.z_mbs)
    table.add_row("crossover n (Eq. 9)", a.crossover_n)
    table.add_row("max feasible n", a.max_feasible_n)
    table.add_row("reachable", str(a.reachable))
    print(_emit(table, get_format(args)))
    return 0


def cmd_bounds(args) -> int:
    table = TextTable(
        ["M (words)", "CAPS words", "classical words", "regime"], ndigits=5
    )
    for m in args.memory_words:
        strassen = communication_bound_words(args.n, args.procs, m)
        classical = communication_bound_words(args.n, args.procs, m, omega0=3.0)
        table.add_row(m, strassen.words, classical.words, strassen.binding_term)
    print(f"Eq. 8 bounds for n={args.n}, P={args.procs}:")
    print(_emit(table, get_format(args)))
    return 0


def cmd_sparse(args) -> int:
    from .sparse import SparseEPStudy, banded, power_law, uniform_random

    machine = _machine_from_args(args)
    if args.pattern == "banded":
        pattern = banded(args.n, args.bandwidth, seed=args.seed)
    elif args.pattern == "random":
        pattern = uniform_random(args.n, args.density, seed=args.seed)
    else:
        pattern = power_law(args.n, avg_degree=args.degree, seed=args.seed)
    with _scoped_tracing(args.trace, "repro sparse"):
        result = SparseEPStudy(
            machine, pattern, repeats=args.repeats, verify=not args.no_verify
        ).run()
        print(f"SpMV storage-scheme study: {args.pattern}, n={args.n}, nnz={pattern.nnz}")
        print(_emit(result.summary_table(), get_format(args)))
    return 0


def cmd_distributed(args) -> int:
    from .distributed import (
        CapsDistributed,
        ClusterSpec,
        DistributedEPStudy,
        Summa25D,
        Summa2D,
    )
    from .power.planes import Plane

    if args.simulate:
        return _cmd_distributed_simulate(args)

    cluster = ClusterSpec(node=_machine_from_args(args))
    study = DistributedEPStudy(
        cluster,
        [Summa2D(cluster), Summa25D(cluster, c=4), CapsDistributed(cluster)],
        node_counts=tuple(args.nodes),
    )
    with _scoped_tracing(args.trace, "repro distributed"):
        result = study.run(args.n)
        table = TextTable(
            ["algorithm", "nodes", "time (s)", "comm %", "rank W", "net W"], ndigits=4
        )
        for alg in result.algorithm_names:
            for nodes in args.nodes:
                run = result.run_for(alg, nodes)
                table.add_row(
                    result.display_names[alg],
                    nodes,
                    run.time_s,
                    100 * run.profile.comm_fraction,
                    run.rank_power_w,
                    run.planes_w[Plane.PSYS],
                )
        print(_emit(table, get_format(args)))
    return 0


def _cmd_distributed_simulate(args) -> int:
    """The discrete-event path: ``repro distributed --simulate``."""
    from .distributed import ClusterSpec, NetworkConfig, NetworkSweep, Topology

    cluster = ClusterSpec(
        node=_machine_from_args(args), topology=Topology(args.topology)
    )
    cfg = NetworkConfig(protocol=args.protocol, chunks=args.chunks, c=args.c)
    sweep = NetworkSweep(cluster, args.alg, cfg)
    with _scoped_tracing(args.trace, "repro distributed --simulate"):
        result = sweep.run(args.n, args.nodes)
        table = TextTable(
            ["ranks", "events", "time (s)", "compute (s)",
             "max rank MB", "floor MB", "margin"],
            ndigits=4,
        )
        for run in result.results:
            margin = run.bound_margin
            table.add_row(
                run.ranks,
                run.n_events,
                run.total_time_s,
                run.compute_time_s,
                run.max_comm_bytes / 2**20,
                run.floor_bytes / 2**20,
                "inf" if margin == float("inf") else round(margin, 3),
            )
        print(
            f"event-simulated {args.alg} n={args.n} on {args.topology} "
            f"topology (protocol={args.protocol}, chunks={args.chunks}, "
            f"c={args.c})"
        )
        print(_emit(table, get_format(args)))
        bad = result.violations()
        if bad:
            for run in bad:
                print(
                    f"FAIL: {run.algorithm} P={run.ranks} beats the Eq. 8 "
                    f"floor ({run.max_comm_bytes:.0f} < {run.floor_bytes:.0f} "
                    f"bytes)"
                )
            return 1
    return 0


def cmd_verify(args) -> int:
    from .testing import run_verify

    progress = None
    if not args.quiet:
        progress = lambda msg: print(f"  {msg}", flush=True)  # noqa: E731
    report = run_verify(
        cases=args.cases,
        seed=args.seed,
        max_tasks=args.max_tasks,
        progress=progress,
    )
    print(report.summary())
    missing = [
        name for name in (args.require or []) if not report.checks.get(name)
    ]
    if missing:
        print(
            "FAIL: required check(s) never ran: " + ", ".join(sorted(missing))
        )
        return 1
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    import asyncio

    from .service import ServiceConfig, serve

    config = ServiceConfig(
        engine=args.engine,
        workers=args.workers,
        verify=not args.no_verify,
    )
    print(f"serving on {args.socket} (store: {args.store or 'none'})", flush=True)
    asyncio.run(
        serve(
            args.socket,
            store=args.store,
            machine=machine_from_args(args),
            config=config,
        )
    )
    print("service shut down")
    return 0


def cmd_query(args) -> int:
    from .service import ServiceClient, StudyRequest

    with ServiceClient(args.socket, timeout=args.timeout) as client:
        if args.stats:
            stats = client.stats()
            table = TextTable(["metric", "value"], ndigits=6)
            for name in sorted(stats):
                table.add_row(name, stats[name])
            print(emit(table, get_format(args)))
            return 0
        if args.shutdown:
            client.shutdown()
            print("sent shutdown")
            return 0
        request = StudyRequest(
            algorithms=tuple(args.algorithms),
            sizes=tuple(args.sizes),
            threads=tuple(args.threads),
            seed=args.seed,
            execute_max_n=args.execute_max_n,
        )
        reply = client.query(request)
    sources = reply["sources"]
    table = TextTable(
        ["algorithm", "n", "threads", "time (s)", "package J", "avg W", "source"],
        ndigits=6,
    )
    for cell in reply["cells"]:
        table.add_row(
            cell["algorithm"],
            cell["n"],
            cell["threads"],
            cell["elapsed_s"],
            cell["energy_package_j"],
            cell["avg_power_w"],
            cell["source"],
        )
    print(emit(table, get_format(args)))
    total = len(reply["cells"])
    print(
        f"cells: {total} (store {sources.get('store', 0)}, "
        f"computed {sources.get('computed', 0)}, "
        f"deduped {sources.get('inflight', 0)})"
    )
    return 0


def cmd_trace(args) -> int:
    from .algorithms import make_algorithm
    from .reporting import render_gantt, write_chrome_trace
    from .runtime import Scheduler
    from .sim import Engine

    machine = _machine_from_args(args)
    algorithm = make_algorithm(args.alg, machine)
    build = algorithm.build_cached(args.n, args.threads)
    schedule = Scheduler(machine, args.threads, policy=args.policy).run(build.graph)
    measurement = Engine(machine).measure(schedule, label=f"{args.alg}[n={args.n}]")
    print(render_gantt(schedule, width=68))
    print()
    print(measurement.summary())
    if args.out:
        path = write_chrome_trace(schedule, args.out, power=measurement.trace)
        print(f"wrote chrome://tracing file to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Communication Avoiding Power Scaling - reproduction toolkit",
    )
    add_format_arg(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print the simulated platform spec")
    _add_machine_args(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("study", help="run the EP study (Tables II-IV)")
    _add_machine_args(p)
    add_format_arg(p)
    add_trace_arg(p)
    p.add_argument("--sizes", type=int, nargs="+", default=[256, 512])
    p.add_argument("--threads", type=int, nargs="+", default=[1, 2, 3, 4])
    p.add_argument("--execute-max-n", type=int, default=512,
                   help="largest size to run real numerics for")
    p.add_argument("--parallel", type=int, default=None, metavar="N",
                   help="fan cells across N worker processes "
                   "(deterministic; identical results to serial)")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--figures", action="store_true", help="render ASCII figures too")
    add_engine_arg(p)
    add_study_scale_args(p)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser(
        "engines",
        help="probe which event kernels (reference/fast/compiled) this "
        "host can run, and why",
    )
    add_format_arg(p)
    p.set_defaults(func=cmd_engines)

    p = sub.add_parser("choose", help="algorithm choice under a power cap")
    _add_machine_args(p)
    add_format_arg(p)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--threads", type=int, nargs="+", default=[1, 2, 3, 4])
    p.add_argument("--cap", type=float, default=None, help="power cap in watts")
    p.add_argument("--metric", choices=("avg", "peak"), default="peak")
    p.set_defaults(func=cmd_choose)

    p = sub.add_parser("crossover", help="Eq. 9 crossover analysis")
    _add_machine_args(p)
    add_format_arg(p)
    p.add_argument("--efficiency", type=float, default=0.92)
    p.set_defaults(func=cmd_crossover)

    p = sub.add_parser("bounds", help="Eq. 8 communication bounds")
    add_format_arg(p)
    p.add_argument("--n", type=int, default=8192)
    p.add_argument("--procs", type=int, default=64)
    p.add_argument("--memory-words", type=float, nargs="+",
                   default=[2**18, 2**22, 2**26])
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sparse", help="SpMV storage-scheme EP study")
    _add_machine_args(p)
    add_format_arg(p)
    add_trace_arg(p)
    p.add_argument("--pattern", choices=("banded", "random", "powerlaw"),
                   default="banded")
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--bandwidth", type=int, default=8)
    p.add_argument("--density", type=float, default=0.01)
    p.add_argument("--degree", type=float, default=8.0)
    p.add_argument("--repeats", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=cmd_sparse)

    p = sub.add_parser(
        "distributed",
        help="distributed-memory EP study (closed-form), or with "
        "--simulate a discrete-event network simulation P-sweep",
    )
    _add_machine_args(p)
    add_format_arg(p)
    add_trace_arg(p)
    p.add_argument("--n", type=int, default=8192)
    p.add_argument("--nodes", type=int, nargs="+", default=[1, 4, 16, 64])
    p.add_argument("--simulate", action="store_true",
                   help="event-simulate one algorithm over --nodes instead "
                   "of running the closed-form study")
    p.add_argument("--alg", default="summa25d",
                   choices=("summa", "summa25d", "summa15d", "caps-dist"),
                   help="schedule to simulate (with --simulate)")
    p.add_argument("--topology", default="flat",
                   choices=("flat", "ring", "torus2d", "hypercube"))
    p.add_argument("--protocol", default="auto",
                   choices=("auto", "eager", "rendezvous"))
    p.add_argument("--chunks", type=int, default=1,
                   help="pipeline broadcasts as this many chunks (1 = binomial)")
    p.add_argument("--c", type=int, default=1,
                   help="replication factor for summa25d/summa15d")
    p.set_defaults(func=cmd_distributed)

    p = sub.add_parser(
        "verify",
        help="property-based correctness harness (invariants, differential "
        "oracles, RAPL fault injection)",
    )
    p.add_argument("--cases", type=int, default=200,
                   help="number of random cases (seed-pinned: case i uses seed+i)")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--max-tasks", type=int, default=40,
                   help="largest random task graph")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p.add_argument("--require", action="append", metavar="CHECK", default=[],
                   help="fail unless this check family ran at least once "
                   "(repeatable; e.g. --require arena_lowering)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "serve",
        help="run the study service on a unix socket (content-addressed "
        "result store, request dedup, batched computes)",
    )
    _add_machine_args(p)
    p.add_argument("--socket", required=True, help="unix socket path to listen on")
    p.add_argument("--store", default=None,
                   help="result-store directory; without one the service "
                   "keeps no results and a re-query computes its cells again")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="fan batches across N worker processes (0 = in-process)")
    add_engine_arg(p)
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("query", help="query a running study service")
    add_format_arg(p)
    p.add_argument("--socket", required=True, help="unix socket of the service")
    p.add_argument("--algorithms", nargs="+", default=["openblas", "strassen", "caps"])
    p.add_argument("--sizes", type=int, nargs="+", default=[256, 512])
    p.add_argument("--threads", type=int, nargs="+", default=[1, 2, 3, 4])
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument("--execute-max-n", type=int, default=512)
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument("--stats", action="store_true",
                   help="print the service's counter dashboard and exit")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the service to shut down and exit")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("trace", help="schedule one algorithm and export a trace")
    _add_machine_args(p)
    p.add_argument("--alg", default="caps", help="algorithm name (see registry)")
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--policy", default="fifo",
                   choices=("fifo", "lifo", "critical", "steal"))
    p.add_argument("--out", default=None, help="chrome://tracing JSON output path")
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
