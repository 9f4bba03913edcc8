"""Compiled event kernel — the scheduler's ``engine="compiled"``.

The third interchangeable engine: the event sweep of the scalar
``reference`` spec (:meth:`~repro.runtime.scheduler.Scheduler._run_reference`)
transcribed to C (source embedded in
:mod:`repro.runtime._sweep_src`), compiled once per process with the
system C compiler and driven through :mod:`ctypes`.  The hot loop
touches only flat numeric buffers: the arena's own columns (the cost
columns, dependency counts, untied flags, creators and the cached
successor CSR) and the machine's rates.  Like the spec, it prices each
task when it dispatches it, so a run builds and keeps nothing per
``(arena, machine)``; only the ``critical`` policy's priorities are
computed per run (:meth:`~repro.runtime.arena.TaskArena.critical_priorities`).
The kernel writes records, interval rows and busy spans straight into
preallocated output arrays.  No Python objects, dicts, or per-event
allocation anywhere in the sweep.

Numerics contract: the C kernel evaluates the same IEEE-754 double
expressions in the same order as ``reference`` and ``run_fast``
(compiled with ``-ffp-contract=off`` and no fast-math so nothing is
contracted or reassociated), so all three engines emit the same
:class:`~repro.runtime.scheduler.Schedule` columns **bit for bit**:
records, interval rows, busy rows and statistics.  The kernel's output
arrays become the schedule as they are.
Any drift is a bug the ``compiled_engine`` verify family
exists to catch.

Toolchain semantics: a kernel asked for by name is strict, the
platform default degrades gracefully.

* :func:`compiled_available` probes for a working C compiler
  (``$CC``, ``cc``, ``gcc``, ``clang``; ``REPRO_COMPILED_TOOLCHAIN=none``
  forces unavailability for testing the degraded path).
* The default (an unnamed engine, resolved by
  :func:`~repro.runtime.scheduler.default_engine`) and run-time JIT or
  internal kernel failures degrade to ``fast`` with a warn-once
  counter (``engine.compiled_fallbacks``).
* *Naming* ``engine="compiled"`` when the toolchain is absent raises
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
from .scheduler import _EPS, _NO_PROGRESS, Schedule
from .stats import RuntimeStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .arena import TaskArena
    from .scheduler import Scheduler

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
# fallback accounting

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

    The latch is process-global, so long-lived processes (the study
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
        ("flops", _P),
        ("efficiency", _P),
        ("bytes_l1", _P),
        ("bytes_l2", _P),
        ("bytes_l3", _P),
        ("bytes_dram", _P),
        ("untied", _P),
        ("created", _P),
        ("indeg0", _P),
        ("succ_ptr", _P),
        ("succ_idx", _P),
        ("prio", _P),
        ("core_peak", _D),
        ("l1_bw", _D),
        ("l2_bw", _D),
        ("threads", _I),
        ("socket_of", _P),
        ("num_sockets", _I),
        ("l3_bw", _D),
        ("dram_bw", _D),
        ("policy", _I),
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

#: The arena's demand columns, in the kernel's dimension order.
_DEMAND_FIELDS = ("flops", "bytes_l1", "bytes_l2", "bytes_l3", "bytes_dram")


# ---------------------------------------------------------------------------
# run


def run_compiled(sched: "Scheduler", arena: "TaskArena") -> Schedule:
    """Simulate *arena* with the compiled event kernel.

    Raises :class:`_JitError` when the toolchain/compile is unusable
    and :class:`_KernelInternalError` on internal kernel bounds — both
    handled by :func:`run_compiled_or_fallback`.  Workload errors
    (zero service rate, deadlock, no progress) raise
    :class:`~repro.util.errors.SchedulingError` with the spec's exact
    messages and never fall back.
    """
    fn = _load_kernel()
    arena.validate()
    n = len(arena)
    threads = sched.threads
    key = sched._plan_key
    prio = None
    if sched.policy == "critical":
        prio = arena.critical_priorities(arena.uncontended_durations(*key))
    succ_ptr, succ_idx = arena.successors_csr()
    indeg0 = arena.dep_counts
    socket_arr = np.asarray(sched._socket_of, dtype=np.int64)

    rec_cap = max(n, 1)
    # Every interval row retires >= 1 seat entry (an event that retires
    # none raises ERR_NO_PROGRESS), and a task seats one entry per
    # demand above EPS, so their count bounds the rows.
    iv_cap = 1 + sum(
        int(np.count_nonzero(getattr(arena, field) > _EPS))
        for field in _DEMAND_FIELDS
    )
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
        flops=arena.flops.ctypes.data,
        efficiency=arena.efficiency.ctypes.data,
        bytes_l1=arena.bytes_l1.ctypes.data,
        bytes_l2=arena.bytes_l2.ctypes.data,
        bytes_l3=arena.bytes_l3.ctypes.data,
        bytes_dram=arena.bytes_dram.ctypes.data,
        untied=arena.untied.ctypes.data,
        created=arena.created_by.ctypes.data,
        indeg0=indeg0.ctypes.data,
        succ_ptr=succ_ptr.ctypes.data,
        succ_idx=succ_idx.ctypes.data,
        prio=None if prio is None else prio.ctypes.data,
        core_peak=key[0],
        l1_bw=key[1],
        l2_bw=key[2],
        threads=threads,
        socket_of=socket_arr.ctypes.data,
        num_sockets=sched._num_sockets,
        l3_bw=key[3],
        dram_bw=key[4],
        policy=_POLICY_CODE[sched.policy],
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
                f"ready or running in graph {arena.name!r}"
            )
        if rc == _ERR_NO_PROGRESS:
            raise SchedulingError(_NO_PROGRESS)
        raise _KernelInternalError(
            f"kernel error {rc} (a={args.err_a}, b={args.err_b})"
        )

    _CSWEEPS.add(args.iv_count)
    # Sliced copies release the over-provisioned capacity buffers.
    nrec, nbusy = args.rec_count, args.busy_count
    b_core = busy_core[:nbusy].copy()
    b_start = busy_start[:nbusy].copy()
    b_end = busy_end[:nbusy].copy()
    return Schedule(
        graph_name=arena.name,
        threads=threads,
        names=names,
        rec_tid=rec_tid[:nrec].copy(),
        rec_core=rec_core[:nrec].copy(),
        rec_start=rec_start[:nrec].copy(),
        rec_end=rec_end[:nrec].copy(),
        iv_rows=iv_rows[: args.iv_count].copy(),
        busy_core=b_core,
        busy_start=b_start,
        busy_end=b_end,
        stats=RuntimeStats.from_busy(
            args.makespan, b_core, b_start, b_end, n, threads,
            args.migrations, args.steals,
        ),
    )


def run_compiled_or_fallback(
    sched: "Scheduler", arena: "TaskArena"
) -> tuple[Schedule, str]:
    """Run the compiled kernel, degrading to ``run_fast`` (counted,
    warn-once) when it cannot: JIT failure or an internal kernel bound.
    Returns the schedule and the kernel that produced it.  Workload
    :class:`SchedulingError`\\ s propagate — falling back would just
    re-raise the identical error slower."""
    try:
        return run_compiled(sched, arena), "compiled"
    except (_JitError, _KernelInternalError) as exc:
        record_fallback(str(exc))
    from .fastpath import run_fast  # only a fallback pays its import

    return run_fast(sched, arena), "fast"
