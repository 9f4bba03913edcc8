#!/usr/bin/env python
"""Profile the simulator's hot paths, one phase at a time.

The optimization-guide workflow: no optimization without measuring.
Three phases cover the pipeline end to end:

``--phase build``
    Graph lowering only — the templated columnar ``build_arena`` path
    next to the recursive object path (each profiled separately on
    fresh algorithm instances, so subtree-template memos start cold).
``--phase sim``
    The event kernel on a pre-built arena (lowering excluded).  Honors
    ``--engine``.
``--phase study``
    The full execution matrix through :meth:`repro.api.Study.run`
    (lowering + simulation + measurement), the closest thing to a
    production workload.

Run:
  python tools/profile.py --phase sim [--n 2048] [--threads 4] [--top 15]
  python tools/profile.py --phase build --alg caps --n 4096
  python tools/profile.py --phase study --sizes 512 1024
"""

from __future__ import annotations

import os
import sys

# This file is named ``profile.py``; when run as a script its directory
# leads sys.path and would shadow the stdlib ``profile`` module that
# ``cProfile`` imports.  Drop it before touching the profiler machinery.
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.getcwd()) != _HERE]
sys.modules.pop("profile", None)

import argparse
import cProfile
import io
import pstats

from repro.algorithms.registry import make_algorithm
from repro.cliargs import add_engine_arg, add_machine_args, machine_from_args
from repro.sim import Engine


def _print_stats(profiler: cProfile.Profile, top: int, sort: str) -> None:
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(top)
    print(stream.getvalue())


def _profiled(fn, top: int, sort: str):
    profiler = cProfile.Profile()
    profiler.enable()
    out = fn()
    profiler.disable()
    _print_stats(profiler, top, sort)
    return out


def phase_build(args) -> None:
    machine = machine_from_args(args)

    from repro.testing.lowering import object_lowering

    print(f"== object lowering (oracle): {args.alg} n={args.n} p={args.threads} ==")
    alg = make_algorithm(args.alg, machine)
    graph = _profiled(
        lambda: object_lowering(alg, args.n, args.threads),
        args.top,
        args.sort,
    )
    print(f"   {len(graph)} tasks\n")

    print(f"== templated arena: {args.alg} n={args.n} p={args.threads} ==")
    fresh = make_algorithm(args.alg, machine)  # cold template memo
    arena = _profiled(
        lambda: fresh.build_arena(args.n, args.threads), args.top, args.sort
    ).graph
    print(f"   {len(arena)} tasks, {arena.nbytes / 2**20:.2f} MiB resident")


def phase_sim(args) -> None:
    machine = machine_from_args(args)
    alg = make_algorithm(args.alg, machine)
    graph = alg.build_arena(args.n, args.threads).graph
    if args.engine == "compiled":
        # JIT-compile outside the profiler so cc's wall time does not
        # drown the sweep we are actually measuring.
        from repro.runtime.compiledpath import warm_compile

        if not warm_compile():
            sys.exit("compiled engine unavailable (see `repro engines`)")
    engine = Engine(machine, engine=args.engine)
    print(
        f"== {args.engine} kernel: {args.alg} "
        f"n={args.n} p={args.threads}, {len(graph)} tasks =="
    )
    measurement = _profiled(
        lambda: engine.run(graph, args.threads),
        args.top,
        args.sort,
    )
    print(measurement.summary())


def phase_study(args) -> None:
    from repro.api import Study

    machine = machine_from_args(args)
    study = Study(machine, sizes=args.sizes, execute_max_n=0)
    print(f"== study matrix: sizes={args.sizes} (cost-only) ==")
    result = _profiled(lambda: study.run().result, args.top, args.sort)
    print(f"   {len(result.runs)} cells")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_machine_args(ap)
    ap.add_argument("--phase", choices=("build", "sim", "study"), default="sim")
    ap.add_argument("--alg", default="strassen",
                    help="algorithm name (build/sim phases)")
    ap.add_argument("--n", type=int, default=2048)
    ap.add_argument("--threads", type=int, default=4)
    add_engine_arg(ap, default="fast")
    ap.add_argument("--sizes", type=int, nargs="+", default=[512, 1024, 2048],
                    help="study-phase problem sizes")
    ap.add_argument("--top", type=int, default=15)
    ap.add_argument("--sort", default="cumulative",
                    help="pstats sort key (cumulative, tottime, ...)")
    args = ap.parse_args()

    {"build": phase_build, "sim": phase_sim, "study": phase_study}[args.phase](args)


if __name__ == "__main__":
    main()
