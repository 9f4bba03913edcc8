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
computed per run, by the same library's reverse longest-path pass
(:meth:`~repro.runtime.arena.TaskArena.critical_priorities`).
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

The probe, the JIT cache and the loader live in :mod:`repro.runtime.jit`
(re-exported here), which needs no scheduler: the kernel is one exported
function of the library that also holds the arena's longest-path
passes.  Compilation happens lazily on first use inside a
``trace.span("engine.jit_compile")`` so the one-time cost is attributed
in traces and excluded from gated sweep timings; later processes load
the cached library.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING

import numpy as np

from ..observability.metrics import counter
from ..util.errors import SchedulingError
from .jit import COMPILED_FALLBACKS as _COMPILED_FALLBACKS
from .jit import JitError as _JitError
from .jit import (
    compiled_available,
    compiled_cc,
    jit_cache_dir,
    load_library,
    record_fallback,
    reset_fallback_warning,
)
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

#: Contention sweeps performed by the compiled kernel (per-run tally of
#: the interval count it emitted — never touched inside the C loop).
_CSWEEPS = counter(
    "engine.compiled_sweeps",
    description="contention intervals swept by the compiled event kernel",
)


class _KernelInternalError(Exception):
    """The C kernel hit an internal bound (allocation, output capacity).

    Never a property of the workload — always fallback-able."""


_kernel = None  # ctypes function, once loaded


def _load_kernel():
    """The library's ``repro_sweep`` entry point, typed; memoized.
    Raises :class:`_JitError` when the library cannot be had."""
    global _kernel
    if _kernel is None:
        fn = load_library().repro_sweep
        fn.argtypes = [ctypes.POINTER(_SweepArgs)]
        fn.restype = ctypes.c_int64
        _kernel = fn
    return _kernel


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
