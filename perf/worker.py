"""One benchmark process; ``run.py`` spawns a fresh one per repetition.

    python perf/worker.py preflight
    python perf/worker.py setup --spawned T
    python perf/worker.py rep --workload W --seed S --scale full --spawned T [--trace]
    python perf/worker.py client --socket PATH --server-pid PID --seed S --scale full [--trace]
    python perf/worker.py serve --spans-out FILE -- <repro serve arguments>

Each mode prints one JSON object as its last stdout line.  ``--spawned``
is the parent's ``time.perf_counter()`` just before it started this
process, so set-up time covers interpreter start, imports, the engine
probe and loading the cached compiled kernel.  Set-up and cold
operations also report their CPU time, which the parent scales.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402


def setup() -> bool:
    """What every worker pays before its first operation; True when the
    compiled engine is usable."""
    from repro.api import available_engines
    from repro.runtime.compiledpath import warm_compile

    available_engines()
    return warm_compile()


def preflight() -> dict:
    import numpy

    from repro.runtime.compiledpath import compiled_available, compiled_cc

    compiled = setup()
    return {
        "compiled": compiled,
        "compiled_detail": compiled_available()[1],
        "cc": compiled_cc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _op(fn, *args, cpu=None) -> tuple[dict, object]:
    """Time one operation; an exception fails it instead of the worker.
    ``t0`` is its start on the clock the parent's speed probe uses; with
    a *cpu* clock, ``cpu_s`` is the CPU time the operation took."""
    c0 = cpu() if cpu else 0.0
    t0 = time.perf_counter()
    op: dict = {"t0": t0, "ok": True}
    value = None
    try:
        value = fn(*args)
    except Exception as exc:  # one failed operation, reported to the parent
        op.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    op["wall_s"] = time.perf_counter() - t0
    if cpu:
        op["cpu_s"] = cpu() - c0
    return op, value


def _hot(answer, expected, samples: int) -> tuple[list[float], list[float], bool]:
    """Time *samples* answers, and the probe loop after every
    ``HOT_WINDOW`` of them: ``(times, probe times, all equal)``."""
    times, probes, same = [], [], True
    for i in range(samples):
        t0 = time.perf_counter()
        value = answer()
        times.append(time.perf_counter() - t0)
        same = same and value == expected
        if (i + 1) % workloads.HOT_WINDOW == 0:
            probes.append(workloads.window_probe())
    return times, probes, same


def _setup_record(spawned: float) -> list[float]:
    """``[start, wall seconds, CPU seconds]`` of this process's set-up."""
    return [spawned, time.perf_counter() - spawned, time.process_time()]


def rep(args) -> dict:
    compiled = setup()
    setup_record = _setup_record(args.spawned)
    from repro.observability.metrics import registry

    recorder = layers.Recorder() if args.trace else None
    installed = layers.install(recorder) if recorder else None
    before = registry().snapshot()
    out = {"setup": setup_record, "compiled": compiled, "ops": [], "hot_s": []}
    expected = workloads.golden(args.scale, args.workload)
    samples = workloads.SCALES[args.scale]["hot_samples"][args.workload]

    if args.workload == "netsim_sweep":
        results = []
        for sweep, n, ranks in workloads.network_sweeps(args.scale):
            op, result = _op(sweep.run, n, ranks, cpu=time.process_time)
            out["ops"].append(op)
            results.append(result)
        if all(op["ok"] for op in out["ops"]):
            if workloads.netsim_digest(results) != expected:
                _fail(out["ops"], "digest mismatch")
            elif any(r.violations() for r in results):
                _fail(out["ops"], "Eq. 8 floor beaten")
            out["events"] = sum(r.n_events for s in results for r in s.results)
            answer = functools.partial(workloads.sweep_summary, results)
    else:
        if args.workload == "paper_study" and not compiled:
            raise SystemExit("compiled engine unavailable: paper_study cannot run")
        op, result = _op(workloads.run_study, args.workload, args.seed, args.scale,
                         cpu=time.process_time)
        out["ops"].append(op)
        if op["ok"] and workloads.study_digest(result) != expected:
            _fail(out["ops"], "digest mismatch")
        answer = functools.partial(workloads.study_tables, result)

    out["counters"] = registry().delta_since(before)
    if all(op["ok"] for op in out["ops"]):
        out["hot_s"], out["hot_probe_s"], same = _hot(answer, answer(), samples)
        if not same:
            _fail(out["ops"], "hot answer differs from the first one")
    if recorder is not None:
        out["spans"] = recorder.export()
        out["missing"] = sorted(installed.missing)
    return out


def _fail(ops: list[dict], error: str) -> None:
    for op in ops:
        op["ok"] = False
        op["error"] = error


def client(args) -> dict:
    """The service workload's one closed-loop client connection.  A cold
    query's CPU time is the client's plus the server's."""
    from repro.service import ServiceClient

    recorder = layers.Recorder() if args.trace else None
    s = workloads.SCALES[args.scale]
    expected = workloads.golden(args.scale, "service_mixed")
    cold, hot, probes, reference = [], [], [], None

    def both_cpu() -> float:
        return time.process_time() + workloads.cpu_seconds(args.server_pid)

    with ServiceClient(args.socket, timeout=120.0) as conn:
        def query(request, phase):
            with recorder.span(f"client.{phase}_query") if recorder else contextlib.nullcontext():
                return _op(conn.query, request, cpu=both_cpu if phase == "cold" else None)

        for k in range(s["cold_queries"]):
            request = workloads.grid_request(args.seed + k, args.scale)
            op, reply = query(request, "cold")
            if op["ok"]:
                cells = reply["cells"]
                if reply["sources"].get("computed") != len(cells):
                    _fail([op], f"cold query not computed: {reply['sources']}")
                elif workloads.service_digest(cells) != expected:
                    _fail([op], "digest mismatch")
                reference = workloads.cell_rows(cells)
            cold.append(op)
        for i in range(s["hot_queries"]):
            op, reply = query(request, "hot")
            if op["ok"]:
                if reply["sources"].get("store") != len(reply["cells"]):
                    _fail([op], f"hot query not served from the store: {reply['sources']}")
                elif workloads.cell_rows(reply["cells"]) != reference:
                    _fail([op], "hot answer differs from the cold one")
            hot.append(op)
            if (i + 1) % workloads.HOT_WINDOW == 0:
                probes.append(workloads.window_probe())
    out = {"ops": cold + hot, "cold_ops": len(cold), "hot_s": [op["wall_s"] for op in hot],
           "hot_probe_s": probes}
    if recorder is not None:
        out["spans"] = recorder.export()
    return out


def serve(args) -> int:
    """``repro serve`` with the layer timers installed; spans and counter
    deltas are written to ``--spans-out`` when the service shuts down."""
    from repro.cli import main
    from repro.observability.metrics import registry

    recorder = layers.Recorder()
    installed = layers.install(recorder)
    before = registry().snapshot()
    rc = main(args.serve_args)
    Path(args.spans_out).write_text(json.dumps({
        "spans": recorder.export(),
        "counters": registry().delta_since(before),
        "missing": sorted(installed.missing),
    }))
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("preflight")
    p = sub.add_parser("setup")
    p.add_argument("--spawned", type=float, required=True)
    p = sub.add_parser("rep")
    p.add_argument("--workload", choices=workloads.WORKLOADS[:3], required=True)
    p.add_argument("--spawned", type=float, required=True)
    for p in (p, sub.add_parser("client")):
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--scale", choices=sorted(workloads.SCALES), required=True)
        p.add_argument("--trace", action="store_true")
    p.add_argument("--socket", required=True)
    p.add_argument("--server-pid", type=int, required=True)
    p = sub.add_parser("serve")
    p.add_argument("--spans-out", required=True)
    p.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.mode == "serve":
        if args.serve_args[:1] == ["--"]:
            args.serve_args = args.serve_args[1:]
        return serve(args)
    if args.mode == "preflight":
        result = preflight()
    elif args.mode == "setup":
        result = {"compiled": setup(), "setup": _setup_record(args.spawned)}
    elif args.mode == "rep":
        result = rep(args)
    else:
        result = client(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
