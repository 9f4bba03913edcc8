"""Compiled event kernel — the scheduler's ``engine="compiled"``.

The third interchangeable engine: the incremental event sweep of
:mod:`repro.runtime.fastpath` transcribed to C (source embedded in
:mod:`repro.runtime._sweep_src`), compiled once per process with the
system C compiler and driven through :mod:`ctypes`.  The hot loop
touches only flat numeric buffers — the arena's
:class:`~repro.runtime.plans.PlanBundle` of contiguous numpy arrays
(CSR seat plans, successor CSR, per-task flags), built vectorized once
per ``(arena, machine)``; an object graph goes through its
cached arena twin first — and the kernel writes records, interval rows
and busy spans straight into preallocated output arrays.  No Python
objects, dicts, or per-event allocation anywhere in the sweep.

Numerics contract: the C kernel evaluates the same IEEE-754 double
expressions in the same order as ``run_fast`` (compiled with
``-ffp-contract=off`` and no fast-math so nothing is contracted or
reassociated), so the two engines produce **bit-identical** event
times, records and interval rows; versus ``reference`` the documented
1e-12 relative tolerance and zero-width-interval merge rule apply
unchanged.  Any drift is a bug the ``compiled_engine`` verify family
exists to catch.

Toolchain semantics mirror the shm transport (PR 5):

* :func:`compiled_available` probes for a working C compiler
  (``$CC``, ``cc``, ``gcc``, ``clang``; ``REPRO_COMPILED_TOOLCHAIN=none``
  forces unavailability for testing the degraded path).
* Resolution paths (``default_engine`` under ``REPRO_ENGINE=compiled``,
  run-time JIT or internal kernel failures) degrade to ``fast`` with a
  warn-once counter (``engine.compiled_fallbacks``).
* *Forcing* ``engine="compiled"`` when the toolchain is absent raises
  :class:`~repro.util.errors.ConfigurationError` at construction.

Compilation happens lazily on first use inside a
``trace.span("engine.jit_compile")`` so the one-time cost is attributed
in traces and excluded from gated sweep timings; the resulting shared
library is cached under ``$REPRO_JIT_CACHE`` (default
``~/.cache/repro-jit``) keyed by a hash of the source + ABI + compiler,
so later processes skip the compile entirely.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import warnings
from typing import TYPE_CHECKING

import numpy as np

from ..observability import trace
from ..observability.metrics import counter
from ..util.errors import ConfigurationError, SchedulingError
from ._sweep_src import ABI_VERSION, SWEEP_SOURCE
from .plans import arena_of, plan_bundle
from .scheduler import Schedule
from .stats import RuntimeStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .scheduler import Scheduler
    from .task import TaskGraph

__all__ = [
    "compiled_available",
    "compiled_cc",
    "jit_cache_dir",
    "warm_compile",
    "run_compiled",
    "run_compiled_or_fallback",
    "record_fallback",
    "reset_fallback_warning",
]

#: Compiled-engine requests that degraded to the fast kernel.
_COMPILED_FALLBACKS = counter(
    "engine.compiled_fallbacks",
    description="compiled-engine requests degraded to the fast kernel",
)
#: Contention sweeps performed by the compiled kernel (per-run tally of
#: the interval count it emitted — never touched inside the C loop).
_CSWEEPS = counter(
    "engine.compiled_sweeps",
    description="contention intervals swept by the compiled event kernel",
)

_ENV_TOOLCHAIN = "REPRO_COMPILED_TOOLCHAIN"
_ENV_CACHE = "REPRO_JIT_CACHE"

_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


class _JitError(Exception):
    """Toolchain absent or JIT compilation/load failed (fallback-able)."""


class _KernelInternalError(Exception):
    """The C kernel hit an internal bound (allocation, output capacity).

    Never a property of the workload — always fallback-able."""


# ---------------------------------------------------------------------------
# fallback accounting (mirrors repro.runtime.shm)

_fallback_warned = False


def record_fallback(reason: str) -> None:
    """Count a compiled→fast engine fallback and warn once per process."""
    global _fallback_warned
    _COMPILED_FALLBACKS.add()
    if not _fallback_warned:
        _fallback_warned = True
        warnings.warn(
            f"compiled event kernel unavailable ({reason}); falling back "
            f"to the fast engine (results are identical, sweeps are "
            f"slower)",
            RuntimeWarning,
            stacklevel=3,
        )


def reset_fallback_warning() -> None:
    """Re-arm the once-per-process fallback warning.

    Same rationale as :func:`repro.runtime.shm.reset_fallback_warning`:
    the latch is process-global, so long-lived processes (the study
    service, pytest) reset it at unit-of-work boundaries; the counter
    is unaffected.
    """
    global _fallback_warned
    _fallback_warned = False


# ---------------------------------------------------------------------------
# toolchain probe + JIT compile

_cc_probe: tuple[str | None, str] | None = None
_kernel = None  # ctypes function, once loaded
_kernel_error: str | None = None  # sticky first compile/load failure


def _find_cc() -> tuple[str | None, str]:
    """Locate a C compiler: ``$CC`` first, then cc/gcc/clang (memoized)."""
    global _cc_probe
    if _cc_probe is None:
        candidates = []
        env_cc = os.environ.get("CC")
        if env_cc:
            candidates.append(env_cc)
        candidates += ["cc", "gcc", "clang"]
        for cand in candidates:
            path = shutil.which(cand)
            if path:
                _cc_probe = (path, "")
                break
        else:
            _cc_probe = (None, "no C compiler found (tried $CC, cc, gcc, clang)")
    return _cc_probe


def compiled_available() -> tuple[bool, str]:
    """Can the compiled engine run here?  ``(ok, reason)``.

    *reason* explains unavailability, or describes the toolchain when
    available.  The compiler probe is memoized; the
    ``REPRO_COMPILED_TOOLCHAIN`` override is re-read per call
    (``auto``/``cc`` use the probe, ``none`` forces the degraded path —
    the testing/CI knob for exercising fallbacks on a machine that has
    a compiler).
    """
    mode = os.environ.get(_ENV_TOOLCHAIN, "auto")
    if mode not in ("auto", "cc", "none"):
        raise ConfigurationError(
            f"{_ENV_TOOLCHAIN} must be 'auto', 'cc' or 'none', got {mode!r}"
        )
    if mode == "none":
        return False, f"disabled via {_ENV_TOOLCHAIN}=none"
    if _kernel is not None:
        return True, "kernel loaded"
    if _kernel_error is not None:
        return False, f"JIT compilation failed: {_kernel_error}"
    cc, reason = _find_cc()
    if cc is None:
        return False, reason
    return True, f"cc={cc}"


def compiled_cc() -> str | None:
    """Path of the C compiler the JIT would use (``None`` when absent)."""
    return _find_cc()[0]


def jit_cache_dir() -> str:
    """Where compiled kernels live (``REPRO_JIT_CACHE`` override)."""
    return _cache_dir()


def _cache_dir() -> str:
    override = os.environ.get(_ENV_CACHE)
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-jit")


def _ensure_compiled(cc: str) -> str:
    """Compile the kernel into the JIT cache (if not already there) and
    return the shared-library path.

    The library name is keyed by ``sha256(ABI + compiler + source)`` so
    editing the kernel or switching compilers never loads a stale
    binary; the write is atomic (tmp + rename) so concurrent processes
    race benignly.
    """
    digest = hashlib.sha256(
        f"{ABI_VERSION}\n{cc}\n{SWEEP_SOURCE}".encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"repro_sweep_{digest}.so")
    if os.path.exists(lib_path):
        return lib_path
    os.makedirs(cache, exist_ok=True)
    src_path = os.path.join(cache, f"repro_sweep_{digest}.c")
    tmp_path = f"{lib_path}.tmp.{os.getpid()}"
    with open(src_path, "w") as fh:
        fh.write(SWEEP_SOURCE)
    proc = subprocess.run(
        [cc, *_CFLAGS, src_path, "-o", tmp_path, "-lm"],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-3:]
        raise _JitError(
            f"{cc} exited {proc.returncode}: {' | '.join(tail) or 'no output'}"
        )
    os.replace(tmp_path, lib_path)
    return lib_path


def _load_kernel():
    """Compile (first use) and load the sweep kernel; memoized.

    A failure is sticky for the life of the process (``_kernel_error``)
    so every later run falls back immediately instead of re-running the
    compiler per sweep.
    """
    global _kernel, _kernel_error
    if _kernel is not None:
        return _kernel
    if _kernel_error is not None:
        raise _JitError(_kernel_error)
    ok, reason = compiled_available()
    if not ok:
        raise _JitError(reason)
    cc, _ = _find_cc()
    assert cc is not None
    with trace.span("engine.jit_compile", abi=ABI_VERSION):
        try:
            lib_path = _ensure_compiled(cc)
            lib = ctypes.CDLL(lib_path)
            fn = lib.repro_sweep
        except _JitError as exc:
            _kernel_error = str(exc)
            raise
        except OSError as exc:  # corrupt/unloadable .so
            _kernel_error = f"loading compiled kernel failed: {exc}"
            raise _JitError(_kernel_error) from exc
    fn.argtypes = [ctypes.POINTER(_SweepArgs)]
    fn.restype = ctypes.c_int64
    _kernel = fn
    return fn


def warm_compile() -> bool:
    """Compile + load the kernel now (e.g. before timed benchmark
    sweeps, so JIT cost is excluded).  True when the engine is usable."""
    try:
        _load_kernel()
    except _JitError:
        return False
    return True


# ---------------------------------------------------------------------------
# ABI

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double


class _SweepArgs(ctypes.Structure):
    """ctypes mirror of the C ``SweepArgs`` struct.

    Field order must match ``_sweep_src.SWEEP_SOURCE`` exactly; every
    field is 8 bytes so the layout is padding-free on any LP64 target
    (asserted below — a mismatch would corrupt silently otherwise).
    """

    _fields_ = [
        ("n", _I),
        ("priv_ptr", _P),
        ("priv_dim", _P),
        ("priv_rate", _P),
        ("priv_dur", _P),
        ("priv_adj", _P),
        ("priv_dem", _P),
        ("shr_ptr", _P),
        ("shr_dim", _P),
        ("shr_work", _P),
        ("alive0", _P),
        ("affinity", _P),
        ("zeros", _P),
        ("created", _P),
        ("indeg0", _P),
        ("succ_ptr", _P),
        ("succ_idx", _P),
        ("seeds", _P),
        ("n_seeds", _I),
        ("prio", _P),
        ("threads", _I),
        ("socket_of", _P),
        ("num_sockets", _I),
        ("l3_bw", _D),
        ("dram_bw", _D),
        ("policy", _I),
        ("any_created", _I),
        ("rec_tid", _P),
        ("rec_core", _P),
        ("rec_start", _P),
        ("rec_end", _P),
        ("rec_cap", _I),
        ("iv_rows", _P),
        ("iv_cap", _I),
        ("busy_core", _P),
        ("busy_start", _P),
        ("busy_end", _P),
        ("busy_cap", _I),
        ("rec_count", _I),
        ("iv_count", _I),
        ("busy_count", _I),
        ("makespan", _D),
        ("migrations", _I),
        ("steals", _I),
        ("err_code", _I),
        ("err_a", _I),
        ("err_b", _I),
    ]


assert ctypes.sizeof(_SweepArgs) == 8 * len(_SweepArgs._fields_), (
    "SweepArgs ABI is padded — C/ctypes layouts would disagree"
)

_OK = 0
_ERR_ZERO_RATE = 1
_ERR_DEADLOCK = 2
_ERR_NO_PROGRESS = 3

_POLICY_CODE = {"fifo": 0, "lifo": 1, "critical": 2, "steal": 3}


# ---------------------------------------------------------------------------
# run


def run_compiled(sched: "Scheduler", graph: "TaskGraph") -> Schedule:
    """Simulate *graph* with the compiled event kernel.

    Raises :class:`_JitError` when the toolchain/compile is unusable
    and :class:`_KernelInternalError` on internal kernel bounds — both
    handled by :func:`run_compiled_or_fallback`.  Workload errors
    (zero service rate, deadlock, no progress) raise
    :class:`~repro.util.errors.SchedulingError` with the fast engine's
    exact messages and never fall back.
    """
    fn = _load_kernel()
    graph.validate()
    n = len(graph)
    threads = sched.threads
    with trace.span("plan", tasks=n) as span:
        arena = arena_of(graph)
        cp, cached = plan_bundle(arena, sched._plan_key)
        prio_ptr = None
        if sched.policy == "critical":
            prio_ptr = cp.priorities(arena).ctypes.data
        span.set(cached=cached)

    socket_arr = np.asarray(sched._socket_of, dtype=np.int64)

    rec_cap = max(n, 1)
    # Every finite event retires >= 1 seat entry at its true exhaust
    # time, so the interval count is bounded by the total entry count.
    iv_cap = cp.total_entries + 1
    busy_cap = n + 1
    rec_tid = np.empty(rec_cap, dtype=np.int64)
    rec_core = np.empty(rec_cap, dtype=np.int64)
    rec_start = np.empty(rec_cap, dtype=np.float64)
    rec_end = np.empty(rec_cap, dtype=np.float64)
    iv_rows = np.empty((iv_cap, 8), dtype=np.float64)
    busy_core = np.empty(busy_cap, dtype=np.int64)
    busy_start = np.empty(busy_cap, dtype=np.float64)
    busy_end = np.empty(busy_cap, dtype=np.float64)

    args = _SweepArgs(
        n=n,
        priv_ptr=cp.priv_ptr.ctypes.data,
        priv_dim=cp.priv_dim.ctypes.data,
        priv_rate=cp.priv_rate.ctypes.data,
        priv_dur=cp.priv_dur.ctypes.data,
        priv_adj=cp.priv_adj.ctypes.data,
        priv_dem=cp.priv_dem.ctypes.data,
        shr_ptr=cp.shr_ptr.ctypes.data,
        shr_dim=cp.shr_dim.ctypes.data,
        shr_work=cp.shr_work.ctypes.data,
        alive0=cp.alive0.ctypes.data,
        affinity=cp.affinity.ctypes.data,
        zeros=cp.zeros.ctypes.data,
        created=cp.created.ctypes.data,
        indeg0=cp.indeg0.ctypes.data,
        succ_ptr=cp.succ_ptr.ctypes.data,
        succ_idx=cp.succ_idx.ctypes.data,
        seeds=cp.seeds.ctypes.data,
        n_seeds=len(cp.seeds),
        prio=prio_ptr,
        threads=threads,
        socket_of=socket_arr.ctypes.data,
        num_sockets=sched._num_sockets,
        l3_bw=sched.machine.l3_bandwidth,
        dram_bw=sched.machine.dram_bandwidth,
        policy=_POLICY_CODE[sched.policy],
        any_created=1 if cp.any_created else 0,
        rec_tid=rec_tid.ctypes.data,
        rec_core=rec_core.ctypes.data,
        rec_start=rec_start.ctypes.data,
        rec_end=rec_end.ctypes.data,
        rec_cap=rec_cap,
        iv_rows=iv_rows.ctypes.data,
        iv_cap=iv_cap,
        busy_core=busy_core.ctypes.data,
        busy_start=busy_start.ctypes.data,
        busy_end=busy_end.ctypes.data,
        busy_cap=busy_cap,
    )

    rc = fn(ctypes.byref(args))
    names = arena.names_list()
    if rc != _OK:
        if rc == _ERR_ZERO_RATE:
            raise SchedulingError(
                f"task {names[args.err_a]!r} has demand in dim {args.err_b} "
                f"but zero service rate"
            )
        if rc == _ERR_DEADLOCK:
            raise SchedulingError(
                f"deadlock: {n - args.err_a} tasks left but nothing "
                f"ready or running in graph {graph.name!r}"
            )
        if rc == _ERR_NO_PROGRESS:
            raise SchedulingError(
                "scheduler made no progress (dt == 0 with no completions)"
            )
        raise _KernelInternalError(
            f"kernel error {rc} (a={args.err_a}, b={args.err_b})"
        )

    ivc = args.iv_count
    bc = args.busy_count
    makespan = args.makespan
    _CSWEEPS.add(ivc)
    # Hand the kernel's output arrays to Schedule untouched (sliced
    # copies so the over-provisioned capacity buffers are released):
    # tuple lists and CoreTimelines materialize lazily, so a run that
    # only reads stats never pays the ndarray->Python conversion,
    # which profiles as ~3x the cost of the C sweep itself.
    b_core = busy_core[:bc].copy()
    b_start = busy_start[:bc].copy()
    b_end = busy_end[:bc].copy()
    # Per-core busy seconds without building timelines.  bincount adds
    # each weight in input order, and the kernel emits busy intervals
    # in chronological order, so every core's accumulation performs the
    # exact float additions CoreTimeline.busy_time would — the stats
    # stay bit-identical to the fast engine's.
    per_core = np.bincount(
        b_core, weights=b_end - b_start, minlength=threads
    ).tolist()
    stats = RuntimeStats.from_busy(
        makespan=makespan,
        busy=per_core,
        task_count=n,
        threads=threads,
        migrations=args.migrations,
        steals=args.steals,
    )
    rc_count = args.rec_count
    return Schedule(
        graph_name=graph.name,
        threads=threads,
        raw_records=(
            rec_tid[:rc_count].copy(),
            rec_core[:rc_count].copy(),
            rec_start[:rc_count].copy(),
            rec_end[:rc_count].copy(),
            names,
        ),
        interval_array=iv_rows[:ivc].copy(),
        raw_busy=(b_core, b_start, b_end),
        stats=stats,
    )


def run_compiled_or_fallback(sched: "Scheduler", graph: "TaskGraph") -> Schedule:
    """Run the compiled kernel, degrading to ``run_fast`` (counted,
    warn-once) when it cannot: JIT failure or an internal kernel bound.
    Workload :class:`SchedulingError`\\ s propagate — falling back would
    just re-raise the identical error slower."""
    from .fastpath import run_fast

    try:
        return run_compiled(sched, graph)
    except (_JitError, _KernelInternalError) as exc:
        record_fallback(str(exc))
        return run_fast(sched, graph)
