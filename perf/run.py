#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction, with per-layer attribution.

    python3 perf/run.py --seed 1                  # every workload, both passes
    python3 perf/run.py --workload paper_study --seed 1 --seconds 28 --trace 0

The untraced pass (``--trace 0``) repeats the workload, each repetition
in a fresh worker process, for ``--seconds`` and prints the end-to-end
metrics.  The traced pass (``--trace 1``) alternates untraced and traced
repetitions for ``--seconds``, wraps the entry points in ``layers.py``
with timers, writes a Chrome trace per workload and prints the
per-layer metrics.  Without ``--trace`` both passes run.  Every output
is checked against ``golden.json``; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Set-up and cold times are CPU time: that of the worker, or of the
service's client and server together.  It leaves out time the CPU was
stolen by the hypervisor or given to another process.  A speed probe on
every CPU times a fixed Python loop throughout.  Each repetition runs on
the CPU that was fastest just before it started, and its set-up and
cold times are scaled by that CPU's probe over the interval they cover
(see :class:`SpeedProbe`); hot answers are scaled by the same loop, run
by the worker after every window of them.

Run from anywhere; the benchmark works in the checkout that holds it
and writes only under ``--out`` (default ``.bench_build/perf``).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(PERF))

import layers  # noqa: E402
import workloads  # noqa: E402

#: Environment variables that would let the caller pick the code path
#: being measured; workers never see them.
DROPPED_ENV = ("REPRO_ENGINE", "REPRO_STUDY_TRANSPORT", "REPRO_COMPILED_TOOLCHAIN")

#: Time budget per workload: no repetition starts once fewer than 30 s
#: remain, and processes still running at the deadline are killed.
DEADLINE_S = 160.0

#: Untraced repetitions every end-to-end measurement runs, however long
#: ``--seconds`` is; ``hot_p50_ms`` is taken from exactly these, so a
#: change that shortens the cold operation gains no extra samples.  One
#: study repetition takes 13-19 s on the development host.
HOT_REPS = 1

#: The probe loop's CPU time on an unloaded vCPU of the development host
#: (2-vCPU Xeon VM, CPython 3.11).  Scaled times are seconds at that
#: speed.
REFERENCE_PROBE_S = 3.0e-4
#: How a workload's cold CPU time follows the probe: it grows by the
#: probe's slowdown to this power.  BLAS slows less than the probe
#: (paper_study), object-heavy lowering more (netsim_sweep).  Fitted
#: over 38 cold operations per study and network workload with the host
#: 0.95-1.55x slow (0.92, 1.13, 1.26), and checked against how far each
#: workload's median moved between ten runs with the host near 1.4x slow
#: and eight near 0.9x (0.81, 1.05, 1.25, service 1.01).  One power of
#: 1.1 for all let paper_study's median move 12% between those sets.
COLD_EXPONENTS = {"paper_study": 0.85, "cost_sweep": 1.1, "netsim_sweep": 1.25,
                  "service_mixed": 1.0}
#: Hot answers are wall time, each window scaled by the probe loop the
#: worker runs right after it, to this power of the slowdown.  They are
#: object-heavy interpreted code and slow more than the probe: over two
#: sets of ten runs per workload with the host 0.84-1.54x slow, 1.5 gave
#: hot spreads of 2-7%, where 1.0 gave 3-22% and 2.0 4-14%.  Set-up time
#: is scaled with power 1.
HOT_SLOWDOWN_EXPONENT = 1.5
PROBE_PERIOD_S = 0.01
#: Intervals shorter than this take the probe over this much time around
#: their midpoint.
PROBE_MIN_WINDOW_S = 0.5
#: Share of probe samples dropped at each end before averaging.
PROBE_TRIM = 0.05


def trimmed_mean(values: list[float]) -> float:
    """Mean of *values* without the lowest and highest ``PROBE_TRIM``."""
    values = sorted(values)
    k = int(len(values) * PROBE_TRIM)
    return statistics.fmean(values[k:len(values) - k])


# ---- host speed -----------------------------------------------------------


class SpeedProbe:
    """Times :func:`workloads.probe_loop` every ``PROBE_PERIOD_S`` on *cpu*.

    Other tenants of a shared host slow this one's vCPUs, and not every
    vCPU by the same factor; interpreted Python, which most of the
    program is, then runs up to 1.6x slower.  The host switches between
    slow and fast within a second, so over an interval the probe takes
    the mean, not the median: a median jumps from one mode to the other
    as the slow share of the interval passes one half.  The probe runs
    on the CPU it measures, next to the worker there, and takes about 3%
    of it; it times the loop in thread CPU time, so it sees how fast the
    CPU runs, not how much of it the probe gets.  CPU time divided by
    the probe's slowdown over the same interval (to a workload's power
    in ``COLD_EXPONENTS``) is the time at the reference speed, and it
    stays put while the host's load changes.
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name=f"speed-probe-{cpu}", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = time.perf_counter()
            self.durations.append(workloads.timed_probe())
            self.starts.append(t0)  # after its duration: readers zip the two

    def recent(self) -> float:
        """Mean probe time over the last ``PROBE_MIN_WINDOW_S`` (inf when none)."""
        last = self.durations[-int(PROBE_MIN_WINDOW_S / PROBE_PERIOD_S):]
        return trimmed_mean(last) if last else float("inf")

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time over ``[start, end]`` ÷ the reference."""
        half = max(end - start, PROBE_MIN_WINDOW_S) / 2
        mid = (start + end) / 2
        n = len(self.starts)
        lo = bisect.bisect_left(self.starts, mid - half, 0, n)
        hi = bisect.bisect_right(self.starts, mid + half, 0, n)
        if lo == hi:
            raise RuntimeError(f"speed probe has no samples near t={mid:.3f}")
        return trimmed_mean(self.durations[lo:hi]) / REFERENCE_PROBE_S

    def scaled(self, start: float, wall: float, busy: float, exponent: float = 1.0) -> float:
        """*busy* CPU seconds spent over the *wall* seconds from *start*,
        at the reference speed."""
        return busy / self.slowdown(start, start + wall) ** exponent


# ---- child processes ------------------------------------------------------


class Runner:
    """Spawns workers and the service with a clean environment, each
    pinned to one CPU, under a deadline, and reaps each one for its exit
    status and peak RSS."""

    #: Children of every runner not reaped yet; :func:`main` kills and
    #: waits for any that are left when it exits.
    live: set[subprocess.Popen] = set()

    def __init__(self, out: Path, deadline: float, probes: dict[int, SpeedProbe]):
        self.out = out
        self.deadline = deadline
        self.probes = probes
        self.env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
        # Workers import from cached bytecode, as an installed package does;
        # the untimed preflight writes it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            REPRO_JIT_CACHE=str(out / "jit"),
            TMPDIR=str(out / "tmp"),
            PYTHONHASHSEED="0",
            # One malloc arena: OpenBLAS threads otherwise take glibc arenas
            # in a timing-dependent order, and paper_study's peak RSS came
            # out bimodal (1134 or 1162 MB over ten runs).
            MALLOC_ARENA_MAX="1",
            # A fixed mmap threshold (glibc's default value): left dynamic,
            # it rises after the first large free, later large arrays come
            # from the heap, and paper_study's peak RSS then followed the
            # length of the worker's path (1133, 1148 or 1219 MB).  Fixed,
            # every path and seed read 1022.5-1022.7 MB.
            MALLOC_MMAP_THRESHOLD_="131072",
        )
        for sub in ("tmp", "logs"):
            (out / sub).mkdir(parents=True, exist_ok=True)
        self.spawned = 0

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def fastest_cpu(self) -> int:
        """The CPU whose probe ran fastest over the last half second: the
        host slows one vCPU for seconds to minutes at a time."""
        return min(self.probes, key=lambda cpu: (self.probes[cpu].recent(), -cpu))

    def spawn(self, argv: list[str], cpu: int, *, log: Path | None = None,
              stderr_log: Path | None = None):
        """Start *argv* on *cpu*; its stdout goes to *log* (or a pipe) and
        its stderr to *stderr_log* (or *log*)."""
        stdout = open(log, "wb") if log else subprocess.PIPE
        stderr = open(stderr_log, "wb") if stderr_log else subprocess.STDOUT
        try:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=stdout, stderr=stderr)
        finally:
            for handle in (stdout, stderr):
                if not isinstance(handle, int):
                    handle.close()
        Runner.live.add(proc)
        # Before the interpreter has started any thread of its own.
        with contextlib.suppress(ProcessLookupError):  # exited; reaping reports it
            os.sched_setaffinity(proc.pid, {cpu})
        return proc

    def reap(self, proc, timeout: float | None = None) -> tuple[str, float | None]:
        """Wait for *proc* (killing it past *timeout*); returns its stdout
        and its peak RSS in MB (``None`` when another wait reaped it)."""
        timer = threading.Timer(max(timeout or self.remaining(), 0.1), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read().decode() if proc.stdout else ""
            if proc.returncode is not None:
                return out, None
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return out, usage.ru_maxrss / 1024.0  # KiB on Linux
        finally:
            timer.cancel()
            if proc.stdout:
                proc.stdout.close()
            if proc.returncode is not None:
                Runner.live.discard(proc)

    def worker(self, cpu: int, *args: str) -> tuple[dict | None, float | None, str]:
        """Run ``worker.py`` on *cpu* to completion: ``(result, peak RSS, error)``."""
        self.spawned += 1
        log = self.out / "logs" / f"{self.spawned}-{args[0]}.log"
        spawned = time.perf_counter()
        argv = [sys.executable, str(PERF / "worker.py"), *args]
        if args[0] in ("rep", "setup"):
            argv += ["--spawned", repr(spawned)]
        proc = self.spawn(argv, cpu, stderr_log=log)
        out, rss = self.reap(proc)
        lines = out.strip().splitlines()
        if proc.returncode == 0 and lines:
            try:
                return json.loads(lines[-1]), rss, ""
            except ValueError:
                pass
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        return None, rss, f"worker {args[0]} exited {proc.returncode}: {' '.join(tail)}"


def _call(sock: str, message: dict, timeout: float = 5.0) -> dict:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(timeout)
        conn.connect(sock)
        conn.sendall(json.dumps(message).encode() + b"\n")
        return json.loads(conn.makefile("rb").readline())


def _socket_path(work: Path) -> str:
    """The service socket, relative to the checkout root every process
    runs in: AF_UNIX paths are capped near 108 bytes."""
    return os.path.relpath(work / "svc.sock", ROOT)


def _start_service(runner: Runner, work: Path, traced: bool, cpu: int):
    """Start ``repro serve`` on a fresh store; returns ``(proc, setup)``
    with set-up ``(start, wall seconds, server CPU seconds)`` from spawn
    to the first answered ping, or ``None``."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sock = _socket_path(work)
    serve_args = ["serve", "--socket", sock, "--store", str(work / "store"), "--workers", "0"]
    if traced:
        argv = [sys.executable, str(PERF / "worker.py"), "serve",
                "--spans-out", str(work / "server.json"), "--", *serve_args]
    else:
        argv = [sys.executable, "-m", "repro", *serve_args]
    spawned = time.perf_counter()
    proc = runner.spawn(argv, cpu, log=work / "server.log")
    while runner.remaining() > 0 and proc.poll() is None:
        try:
            if _call(sock, {"op": "ping"}).get("ok"):
                return proc, (spawned, time.perf_counter() - spawned,
                              workloads.cpu_seconds(proc.pid))
        except OSError:
            time.sleep(0.002)
    return proc, None


def _stop_service(runner: Runner, proc, work: Path) -> float | None:
    try:
        _call(_socket_path(work), {"op": "shutdown"})
    except OSError:
        proc.kill()
    return runner.reap(proc, timeout=min(30.0, max(runner.remaining(), 1.0)))[1]


# ---- repetitions ----------------------------------------------------------


def run_rep(runner: Runner, workload: str, seed: int, scale: str, traced: bool, index: int) -> dict:
    """One repetition in fresh processes on the fastest CPU; returns its
    raw record."""
    t0 = time.perf_counter()
    cpu = runner.fastest_cpu()
    flag = ["--trace"] if traced else []
    if workload != "service_mixed":
        result, rss, error = runner.worker(cpu, "rep", "--workload", workload, "--seed", str(seed),
                                           "--scale", scale, *flag)
        record = {"result": result, "rss_mb": rss, "error": error}
    else:
        record = _service_rep(runner, cpu, seed, scale, traced, index, flag)
    record.update(cpu=cpu, traced=traced, duration_s=time.perf_counter() - t0)
    return record


def _service_rep(runner: Runner, cpu: int, seed: int, scale: str, traced: bool, index: int,
                 flag) -> dict:
    """The server and its client share *cpu*: in a closed loop only one of
    them runs at a time, and cross-CPU wake-ups made hot-query latency
    swing by up to 60% between runs."""
    work = runner.out / "work" / f"service-{index}"
    server, setup = _start_service(runner, work, traced, cpu)
    result, error = None, "service did not answer ping"
    try:
        if setup is not None:
            result, _, error = runner.worker(
                cpu, "client", "--socket", _socket_path(work), "--server-pid", str(server.pid),
                "--seed", str(seed), "--scale", scale, *flag)
    finally:
        rss = _stop_service(runner, server, work)
    if result is not None:
        result["setup"] = setup
        if traced:
            try:
                server_side = json.loads((work / "server.json").read_text())
            except (OSError, ValueError):
                result, error = None, "traced service wrote no spans"
            else:
                result["server"] = server_side
    return {"result": result, "rss_mb": rss, "error": error}


def setup_samples(runner: Runner, workload: str,
                  count: int) -> list[tuple[int, float, float, float]]:
    """Extra set-up-only samples ``(cpu, start, wall, CPU seconds)``, so
    ``setup_s`` is a median of several."""
    samples = []
    for i in range(count):
        cpu = runner.fastest_cpu()
        if workload == "service_mixed":
            work = runner.out / "work" / f"setup-{i}"
            proc, setup = _start_service(runner, work, False, cpu)
            _stop_service(runner, proc, work)
        else:
            result, _, _ = runner.worker(cpu, "setup")
            setup = result and result["setup"]
        if setup is not None:
            samples.append((cpu, *setup))
    return samples


def measure(runner: Runner, workload: str, seed: int, scale: str, seconds: float,
            trace: int | None) -> list[dict]:
    """Repetitions within *seconds*: untraced ones (``trace`` 0),
    untraced/traced pairs (``trace`` 1), or untraced ones then a single
    traced one (``trace`` None).  A round starts only if a round as long
    as the median one so far still ends within *seconds*, except that
    without ``trace`` 1 at least ``HOT_REPS`` untraced repetitions run."""
    pattern = [False, True] if trace == 1 else [False]
    least = 1 if trace == 1 else HOT_REPS
    t0 = time.perf_counter()
    reps: list[dict] = []
    rounds: list[float] = []

    def another() -> bool:
        if len(reps) < least:
            return True
        elapsed = time.perf_counter() - t0
        return elapsed + statistics.median(rounds) <= seconds and runner.remaining() > 30

    while another():
        started = time.perf_counter()
        # Alternate which side of a pair runs first.
        for traced in (pattern if len(reps) % 4 == 0 else pattern[::-1]):
            reps.append(run_rep(runner, workload, seed, scale, traced, len(reps)))
        rounds.append(time.perf_counter() - started)
    if trace is None:
        reps.append(run_rep(runner, workload, seed, scale, True, len(reps)))
    return reps


# ---- metrics --------------------------------------------------------------


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def cold_ops(workload: str, result: dict) -> list[tuple[float, float, float]]:
    """``(start, wall seconds, CPU seconds)`` of each cold operation of a
    repetition."""
    ops = result["ops"]
    if workload == "netsim_sweep":  # the two sweeps run back to back
        return [(ops[0]["t0"], ops[0]["wall_s"] + ops[1]["wall_s"],
                 ops[0]["cpu_s"] + ops[1]["cpu_s"])]
    if workload == "service_mixed":
        ops = ops[: result["cold_ops"]]
    else:
        ops = ops[:1]
    return [(op["t0"], op["wall_s"], op["cpu_s"]) for op in ops]


def cold_scaled(workload: str, record: dict, probes: dict[int, SpeedProbe]) -> list[float]:
    """A repetition's cold times at the reference speed."""
    probe = probes[record["cpu"]]
    return [probe.scaled(*op, COLD_EXPONENTS[workload])
            for op in cold_ops(workload, record["result"])]


def hot_windows(samples: list[float]) -> list[float]:
    """Medians of consecutive, whole windows of ``workloads.HOT_WINDOW`` samples."""
    return [statistics.median(samples[i:i + workloads.HOT_WINDOW])
            for i in range(0, len(samples) - workloads.HOT_WINDOW + 1, workloads.HOT_WINDOW)]


def hot_scaled(result: dict) -> list[float]:
    """A repetition's hot window medians at the reference speed, each
    scaled by the probe loop its process ran right after it, on the same
    CPU at the same moment."""
    return [m / (p / REFERENCE_PROBE_S) ** HOT_SLOWDOWN_EXPONENT
            for m, p in zip(hot_windows(result["hot_s"]), result["hot_probe_s"])]


def end_to_end(workload: str, reps: list[dict],
               extra_setup: list[tuple[int, float, float, float]],
               probes: dict[int, SpeedProbe]) -> tuple[dict, dict]:
    """The end-to-end metrics of the untraced repetitions, every time
    scaled to the reference speed, and what is reported beside them:
    sample counts, the host's slowdown, the unscaled values and the hot
    p99, whose run-to-run spread on a shared host is too wide for any
    bound.  Hot latency is the median window over the first ``HOT_REPS``
    untraced repetitions, a fixed number of windows.
    """
    good = [r for r in reps if r["result"] is not None and not r["traced"]]
    hot = [t for r in good[:HOT_REPS] for t in r["result"]["hot_s"]]
    windows = [m for r in good[:HOT_REPS] for m in hot_scaled(r["result"])]
    if not windows:
        return {}, {}
    setup = [(r["cpu"], *r["result"]["setup"]) for r in good] + extra_setup
    cold = [(r["cpu"], *op) for r in good for op in cold_ops(workload, r["result"])]
    metrics = {
        "setup_s": _median([probes[cpu].scaled(*op) for cpu, *op in setup]),
        "cold_s": _median([t for r in good for t in cold_scaled(workload, r, probes)]),
        "hot_p50_ms": statistics.median(windows) * 1e3,
        "peak_rss_mb": _median([r["rss_mb"] for r in good]),
    }
    reported = {
        "hot_p99_ms": statistics.quantiles(hot, n=100, method="inclusive")[98] * 1e3,
        "host_slowdown": _median([probes[cpu].slowdown(t0, t0 + s) for cpu, t0, s, _ in cold]),
        "hot_slowdown": statistics.median(
            p for r in good[:HOT_REPS] for p in r["result"]["hot_probe_s"]) / REFERENCE_PROBE_S,
        "unscaled": {"setup_s": _median([c for *_, c in setup]),
                     "cold_s": _median([c for *_, c in cold]),
                     "cold_wall_s": _median([s for _, _, s, _ in cold]),
                     "hot_p50_ms": statistics.median(hot) * 1e3},
        "cpus": sorted({r["cpu"] for r in good}),
        "samples": {"setup": len(setup), "cold": len(cold), "hot": len(hot),
                    "hot_windows": len(windows), "reps": len(good)},
    }
    return metrics, reported


def per_layer(workload: str, record: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    result = record["result"]
    spans = result["spans"]
    counters = result.get("counters", {})
    missing = set(result.get("missing", []))
    if workload == "service_mixed":
        server = result["server"]
        counters = server["counters"]
        missing = set(server["missing"])
        wall = layers.top_level_s(spans)  # client-observed query time
        server_spans = server["spans"]
        stats = layers.layer_stats(server_spans)
        wait_s = wall - layers.top_level_s(server_spans)
    else:
        wall = sum(s for _, s, _ in cold_ops(workload, result))
        stats = layers.layer_stats(spans)
        wait_s = 0.0
    out: dict[str, float | None] = {}
    for layer in layers.LAYER_NAMES:
        entry = stats.get(layer, {"calls": 0, "self_s": 0.0})
        live = layer not in missing
        out[f"{layer}.calls"] = entry["calls"] if live else None
        out[f"{layer}.self_s"] = entry["self_s"] if live else None
        out[f"{layer}.share"] = entry["self_s"] / wall if live else None

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits, misses = counters.get("build_cache.hits", 0.0), counters.get("build_cache.misses", 0.0)
    schedules = out["runtime.schedule.calls"]
    events = result.get("events", 0)
    lower_s = out["distributed.lower.self_s"]
    out.update({
        "algorithms.tasks": counters.get("lowering.tasks", 0.0),
        "algorithms.cache_hit_frac": frac(hits, hits + misses),
        "runtime.compiled_frac": None if schedules is None else (
            1.0 - frac(counters.get("engine.compiled_fallbacks", 0.0), schedules)
            if schedules else 0.0),
        "distributed.events": events,
        "distributed.lower.us_per_event": None if lower_s is None else frac(lower_s * 1e6, events),
        "core.store_hit_frac": frac(counters.get("store.hits", 0.0),
                                    counters.get("store.hits", 0.0)
                                    + counters.get("store.misses", 0.0)),
        "service.wait_s": wait_s,
    })
    return out


def traced_metrics(workload: str, reps: list[dict], trace_dir: Path, meta: dict,
                   probes: dict[int, SpeedProbe]) -> dict:
    traced = [r for r in reps if r["traced"] and r["result"] is not None]
    untraced = [r for r in reps if not r["traced"] and r["result"] is not None]
    if not traced:
        return {}
    per_rep = [per_layer(workload, r) for r in traced]
    out = {}
    for name in per_rep[0]:
        values = [m[name] for m in per_rep]
        out[name] = None if None in values else statistics.median(values)
    cold = {side: _median([t for r in rs for t in cold_scaled(workload, r, probes)])
            for side, rs in (("traced", traced), ("untraced", untraced))}
    out["trace.overhead_pct"] = (
        None if not (cold["traced"] and cold["untraced"])
        else 100.0 * (cold["traced"] - cold["untraced"]) / cold["untraced"])
    last = traced[-1]["result"]
    processes = {workload: last["spans"]}
    if workload == "service_mixed":
        processes = {"client": last["spans"], "server": last["server"]["spans"]}
    layers.write_chrome_trace(trace_dir / f"{workload}.json", processes, meta)
    return out


# ---- one workload ---------------------------------------------------------


def _rep_summary(workload: str, record: dict, probes: dict[int, SpeedProbe]) -> dict:
    """What ``summary.json`` keeps of one repetition."""
    out = {k: v for k, v in record.items() if k != "result"}
    if record["result"] is not None:
        ops = cold_ops(workload, record["result"])
        out["cold_wall_s"] = [s for _, s, _ in ops]
        out["cold_cpu_s"] = [c for *_, c in ops]
        out["cold_s"] = cold_scaled(workload, record, probes)
        result = record["result"]
        out["hot_window_ms"] = [m * 1e3 for m in hot_windows(result["hot_s"])]
        out["hot_probe_s"] = result["hot_probe_s"]
        windows = hot_scaled(result)
        out["hot_p50_ms"] = statistics.median(windows) * 1e3 if windows else None
    return out


def run_workload(workload: str, args, out: Path, preflight: dict, meta: dict,
                 probes: dict[int, SpeedProbe]) -> dict:
    runner = Runner(out, time.perf_counter() + DEADLINE_S, probes)
    scale = "smoke" if args.smoke else "full"
    ops_each = workloads.ops_per_rep(workload, scale)
    if workload == "paper_study" and not preflight.get("compiled"):
        return {"attempted": 1, "failed": 1, "metrics": {}, "reported": {}, "reps": [],
                "errors": [f"compiled engine unavailable: {preflight.get('compiled_detail')}"],
                "setup_samples": []}
    # Set-up-only samples bracket the repetitions, so one burst of load
    # elsewhere on the host cannot shift all of them.
    count = workloads.SCALES[scale]["setup_samples"] if args.trace != 1 else 0
    extra_setup = setup_samples(runner, workload, count // 2)
    reps = measure(runner, workload, args.seed, scale, args.seconds, args.trace)
    extra_setup += setup_samples(runner, workload, count - count // 2)
    attempted = failed = 0
    errors = []
    for r in reps:
        if r["result"] is None:
            attempted += ops_each
            failed += ops_each
            errors.append(r["error"])
            continue
        ops = r["result"]["ops"]
        attempted += len(ops)
        bad = [op for op in ops if not op["ok"]]
        failed += len(bad)
        errors += sorted({op["error"] for op in bad})
        if bad:
            r["result"] = None  # a rep with a wrong answer measures nothing
    metrics, reported = {}, {}
    if args.trace != 1:
        metrics, reported = end_to_end(workload, reps, extra_setup, probes)
    if args.trace != 0:
        metrics.update(traced_metrics(workload, reps, out / "traces",
                                      {**meta, "workload": workload}, probes))
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "reported": reported,
            "errors": errors,
            "reps": [_rep_summary(workload, r, probes) for r in reps],
            "setup_samples": [probes[cpu].scaled(*op) for cpu, *op in extra_setup]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long each workload repeats its untraced measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only "
                        "(default: both passes)")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_build" / "perf",
                        help="directory for traces, summary.json and temporary files "
                        "(default: .bench_build/perf in the checkout)")
    parser.add_argument("--record", metavar="FILE", type=Path,
                        help="append this run's summary to a JSON list (for compare.py)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs through the same code (self-tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = args.out.resolve()
    record = args.record.resolve() if args.record else None
    os.chdir(ROOT)
    for sub in ("work", "logs"):
        shutil.rmtree(out / sub, ignore_errors=True)
    chosen = list(dict.fromkeys(args.workload or workloads.WORKLOADS))

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        with contextlib.ExitStack() as stack:
            probes = {cpu: stack.enter_context(SpeedProbe(cpu))
                      for cpu in sorted(os.sched_getaffinity(0))}
            return _run_all(args, spec, out, record, chosen, probes)
    finally:
        for proc in Runner.live:
            proc.kill()
            proc.wait()


def _run_all(args, spec: dict, out: Path, record: Path | None, chosen: list[str],
             probes: dict[int, SpeedProbe]) -> int:
    runner = Runner(out, time.perf_counter() + DEADLINE_S, probes)
    # Untimed: compiles the kernel once, and gives the probes a history.
    preflight, _, error = runner.worker(max(probes), "preflight")
    if preflight is None:
        print(f"error: preflight failed ({error})", file=sys.stderr)
        return 2
    meta = {
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": "smoke" if args.smoke else "full",
        "nproc": os.cpu_count(),
        "pinning": f"each repetition on the fastest of cpus {sorted(probes)}, "
                   "service client and server together; a speed probe on each cpu",
        **preflight,
    }
    print("perf: " + ", ".join(f"{k}={v}" for k, v in meta.items()))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"meta": meta, "workloads": {}}
    for workload in chosen:
        report = run_workload(workload, args, out, preflight, meta, probes)
        summary["workloads"][workload] = report
        untraced = sum(1 for r in report["reps"] if not r["traced"])
        print(f"\n{workload}: {report['attempted']} attempted, {report['failed']} failed, "
              f"{untraced} untraced + {len(report['reps']) - untraced} traced repetitions")
        for name, value in report["metrics"].items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {name:<36} {shown:>14} {units.get(name, '')}")
        if report["reported"]:
            reported = report["reported"]
            print(f"  {'hot_p99_ms (no bound)':<36} {reported['hot_p99_ms']:>14.6g} ms")
            print(f"  host slowdown {reported['host_slowdown']:.3f} (hot "
                  f"{reported['hot_slowdown']:.3f}) on cpus {reported['cpus']}; unscaled: "
                  + ", ".join(f"{k} {v:.6g}" for k, v in reported["unscaled"].items()))
            print("  samples: " + ", ".join(f"{k} {v}" for k, v in reported["samples"].items()))
        for error in report["errors"]:
            print(f"  FAILED: {error}")

    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(json.dumps(summary, indent=1))
    if record:
        runs = json.loads(record.read_text()) if record.exists() else []
        record.write_text(json.dumps(runs + [summary]))

    reports = summary["workloads"].values()
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = {}
    for workload, report in summary["workloads"].items():
        prefix = "" if len(chosen) == 1 else f"{workload}/"
        for name, value in report["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units.get(name, "")}
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
