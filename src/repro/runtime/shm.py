"""Zero-copy shared-memory transport for :class:`~repro.runtime.arena.TaskArena`.

The parallel study driver used to pickle every cell's arena columns into
each :class:`~concurrent.futures.ProcessPoolExecutor` submission — at
n=4096-scale sweeps the serialization traffic dwarfs the vectorized
sweep itself, the communication-avoiding failure mode the paper warns
against, reproduced inside our own harness.  This module moves the
columns the other way: the parent lays every arena's buffers into named
``multiprocessing.shared_memory`` segments *once*, and workers attach
the segments read-only and run the fast engine directly on the mapped
columns.  What crosses the pickle boundary per cell is an
:class:`ArenaDescriptor` — segment name plus a per-column
(dtype, length, offset) table, a few hundred bytes regardless of
problem size.

Three layers:

* :func:`shm_available` — platform probe (import, ``/dev/shm`` space),
  memoized; the study driver consults it for its ``"auto"`` transport
  and falls back to pickling (one warning per process, counted by the
  ``study.shm_fallbacks`` metric) when shared memory cannot be used.
* :class:`ArenaDescriptor` — the compact picklable handle: segment
  name, arena name, interned-name table, and the column layout.
* :class:`ArenaPool` — refcounted owner of segment lifecycle on the
  *creating* side: ``put`` lays an arena out (deduplicating by arena
  identity), ``release`` drops one reference and unlinks at zero,
  ``close`` force-unlinks everything and runs from ``atexit`` so a
  crashed or interrupted study never strands ``/dev/shm`` segments.
  The attach side (:func:`attach_arena` / ``TaskArena.from_shm``) is
  static — workers hold no pool, just per-cell handles they detach
  when the cell completes.

Segment layout: one segment per arena, every column 16-byte aligned, in
a fixed schema order (``name_ids``, ``untied``, ``created_by``,
``dep_indptr``, ``dep_indices``, then the six cost columns).  The
layout is versioned by :data:`ARENA_SCHEMA_VERSION`; descriptors carry
the version and attach refuses a mismatch, so a worker from a
different build can never misread a segment.

Resource-tracker note: CPython (< 3.13) registers *every*
``SharedMemory`` — attaches included — with the process-wide resource
tracker, which would unlink the parent's live segments when a worker
exits.  :func:`attach_arena` therefore unregisters its handle right
after attaching; the creating side keeps its registration as a
last-resort cleanup should the parent die without running ``atexit``.
"""

from __future__ import annotations

import atexit
import os
import shutil
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..observability.metrics import counter
from ..util.errors import ConfigurationError, ValidationError
from .arena import _COST_FIELDS, TaskArena

__all__ = [
    "ARENA_SCHEMA_VERSION",
    "ArenaDescriptor",
    "ArenaPool",
    "attach_arena",
    "detach_arena",
    "record_fallback",
    "reset_fallback_warning",
    "shm_available",
]

#: Version of the segment layout + descriptor schema.  Bump whenever the
#: column set, ordering, dtypes or alignment change; attach refuses
#: mismatched versions.
ARENA_SCHEMA_VERSION = 1

#: Segment names start with this prefix (``/dev/shm/repro-arena-*``),
#: so leak checks — and humans — can spot ours at a glance.
SEGMENT_PREFIX = "repro-arena"

#: Column alignment inside a segment, bytes.
_ALIGN = 16

#: Refuse "auto" shm transport when ``/dev/shm`` has less than segment
#: size + this much headroom free.
_MIN_FREE_BYTES = 1 << 20

_SHM_BYTES_MAPPED = counter(
    "shm.bytes_mapped",
    unit="B",
    description="arena column bytes laid into shared-memory segments",
)
_SHM_FALLBACKS = counter(
    "study.shm_fallbacks",
    description="study transports that fell back from shm to pickling",
)

#: Fixed (attribute, dtype) schema of an arena's columns, in layout order.
_COLUMN_SCHEMA: tuple[tuple[str, str], ...] = (
    ("name_ids", "int32"),
    ("untied", "bool"),
    ("created_by", "int64"),
    ("dep_indptr", "int64"),
    ("dep_indices", "int64"),
) + tuple((f, "float64") for f in _COST_FIELDS)


# ---------------------------------------------------------------------------
# availability probing / graceful degradation


_availability: tuple[bool, str] | None = None
_fallback_warned = False


def shm_available(min_bytes: int = 0) -> tuple[bool, str]:
    """``(ok, reason)`` — can this process use shared-memory transport?

    The import/platform probe is memoized; the ``/dev/shm`` free-space
    check re-runs per call because the answer changes as segments come
    and go.  *min_bytes* is the payload about to be mapped.
    """
    global _availability
    if _availability is None:
        try:
            from multiprocessing import shared_memory  # noqa: F401

            _availability = (True, "")
        except ImportError as exc:  # pragma: no cover - platform specific
            _availability = (False, f"multiprocessing.shared_memory unavailable: {exc}")
    ok, reason = _availability
    if not ok:
        return ok, reason
    if sys.platform.startswith("linux") and os.path.isdir("/dev/shm"):
        try:
            free = shutil.disk_usage("/dev/shm").free
        except OSError as exc:  # pragma: no cover - exotic mounts
            return False, f"/dev/shm unusable: {exc}"
        if free < min_bytes + _MIN_FREE_BYTES:
            return False, (
                f"/dev/shm too small: {free} B free, need "
                f"{min_bytes + _MIN_FREE_BYTES} B"
            )
    return True, ""


def record_fallback(reason: str) -> None:
    """Count a shm→pickle fallback and warn once per process."""
    global _fallback_warned
    _SHM_FALLBACKS.add()
    if not _fallback_warned:
        _fallback_warned = True
        warnings.warn(
            f"shared-memory arena transport unavailable ({reason}); "
            f"falling back to pickling arena columns to study workers "
            f"(results are identical, dispatch is slower)",
            RuntimeWarning,
            stacklevel=3,
        )


def reset_fallback_warning() -> None:
    """Re-arm the once-per-process fallback warning.

    The warn-once latch is process-global, so without a reset a single
    early fallback silences the warning for every later study in the
    same process — and, worse, leaks *between tests*: whichever test
    first triggers a fallback decides whether every later test sees
    the warning.  Long-lived processes (the study service, pytest)
    call this at unit-of-work boundaries; the counter is unaffected.
    """
    global _fallback_warned
    _fallback_warned = False


# ---------------------------------------------------------------------------
# descriptor


@dataclass(frozen=True)
class ArenaDescriptor:
    """Picklable handle to an arena laid out in one shared segment.

    ``columns`` maps the fixed schema order to concrete geometry:
    ``(attribute, dtype, length, byte offset)`` per column.  A
    descriptor pickles to a few hundred bytes regardless of the arena's
    size — that is the whole point.
    """

    segment: str
    arena_name: str
    names: tuple[str, ...]
    columns: tuple[tuple[str, str, int, int], ...]
    nbytes: int
    schema: int = ARENA_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.schema != ARENA_SCHEMA_VERSION:
            raise ValidationError(
                f"arena descriptor schema v{self.schema} does not match "
                f"this build's v{ARENA_SCHEMA_VERSION} "
                f"(segment {self.segment!r})"
            )


def _layout(arena: TaskArena) -> tuple[list[tuple[str, str, int, int]], int]:
    """Column geometry ``(attr, dtype, length, offset)`` plus total bytes."""
    cols: list[tuple[str, str, int, int]] = []
    offset = 0
    for attr, dtype in _COLUMN_SCHEMA:
        arr = getattr(arena, attr)
        cols.append((attr, dtype, len(arr), offset))
        offset += arr.nbytes
        offset += (-offset) % _ALIGN
    return cols, offset


# ---------------------------------------------------------------------------
# attach side (workers)


def attach_arena(descriptor: ArenaDescriptor) -> TaskArena:
    """Map *descriptor*'s segment and build a read-only arena view.

    Zero-copy: every column is a numpy view straight into the shared
    mapping (marked non-writeable — the parent and any number of
    sibling workers read the same physical pages).  The returned arena
    keeps the ``SharedMemory`` handle alive on ``_shm``; call
    :func:`detach_arena` when done with it.
    """
    from multiprocessing import resource_tracker, shared_memory

    # CPython < 3.13 registers attaches with the resource tracker too
    # (no ``track=False``); left registered, a worker exit would unlink
    # segments the parent still owns — and un-registering after the
    # fact is no better, because the tracker's cache is a *set*, so in
    # the creating process it would erase the creation-side entry too.
    # Suppress registration for the duration of the attach instead;
    # creation-side registration stays as a last-resort cleanup.
    orig_register = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        shm = shared_memory.SharedMemory(name=descriptor.segment)
    finally:
        resource_tracker.register = orig_register
    try:
        cost_columns: dict[str, np.ndarray] = {}
        plain: dict[str, np.ndarray] = {}
        for attr, dtype, length, offset in descriptor.columns:
            arr = np.ndarray(length, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
            arr.setflags(write=False)
            if attr in _COST_FIELDS:
                cost_columns[attr] = arr
            else:
                plain[attr] = arr
        arena = TaskArena(
            name=descriptor.arena_name,
            names=descriptor.names,
            name_ids=plain["name_ids"],
            cost_columns=cost_columns,
            untied=plain["untied"],
            created_by=plain["created_by"],
            dep_indptr=plain["dep_indptr"],
            dep_indices=plain["dep_indices"],
        )
    except Exception:
        shm.close()
        raise
    arena._shm = shm
    return arena


def detach_arena(arena: TaskArena) -> None:
    """Drop an attached arena's segment handle (attach side only).

    The arena is dead after this: its column attributes (and every
    derived ``_c_*`` cache / seat plan, which may hold views into the
    mapping) are removed so the mapping can actually close — a pool
    worker runs many cells per process, and a handle left open per cell
    would pile up fds.  A straggler view held elsewhere only delays the
    close to process exit (``BufferError`` is swallowed); it is never an
    error for the caller.
    """
    shm = getattr(arena, "_shm", None)
    if shm is None:
        return
    arena._shm = None
    for attr in list(arena.__dict__):
        if attr.startswith("_c_") or attr == "_fastpath_plan":
            arena.__dict__.pop(attr, None)
    for attr, _ in _COLUMN_SCHEMA:
        arena.__dict__.pop(attr, None)
    try:
        shm.close()
    except BufferError:  # pragma: no cover - straggler views
        pass


# ---------------------------------------------------------------------------
# create side (the study parent)


class ArenaPool:
    """Refcounted owner of shared-memory arena segments.

    The study parent ``put``s each pre-lowered arena once (identical
    arena objects deduplicate to one segment and bump a refcount) and
    hands the returned descriptors to workers; ``release`` undoes one
    ``put`` and unlinks the segment when the last reference drops.
    ``close`` — also registered with ``atexit`` and run by the study
    driver's ``finally`` — force-unlinks everything, so worker crashes,
    ``KeyboardInterrupt`` and ordinary exceptions all leave ``/dev/shm``
    clean.  Unlinking while workers still map a segment is safe on
    POSIX: the pages live until the last mapping closes.
    """

    def __init__(self, prefix: str = SEGMENT_PREFIX):
        self._prefix = f"{prefix}-{os.getpid()}-{os.urandom(4).hex()}"
        self._seq = 0
        self._segments: dict[str, object] = {}  # name -> SharedMemory
        self._refs: dict[str, int] = {}
        # id(arena) -> (arena, descriptor); the strong reference pins
        # the id so it can never be recycled while deduplicating.
        self._by_arena: dict[int, tuple[TaskArena, ArenaDescriptor]] = {}
        self._atexit = self.close
        atexit.register(self._atexit)

    # ---- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self._segments)

    def active_segments(self) -> tuple[str, ...]:
        """Names of the segments this pool currently owns."""
        return tuple(self._segments)

    # ---- lifecycle -----------------------------------------------------

    def put(self, arena: TaskArena) -> ArenaDescriptor:
        """Lay *arena* into a shared segment; returns its descriptor.

        Calling ``put`` again with the same arena object returns the
        same descriptor and bumps its refcount instead of copying the
        columns twice.  Raises ``OSError`` (no space, too many
        segments) or ``ConfigurationError`` (platform) — callers that
        want graceful degradation catch and fall back to pickling.
        """
        from multiprocessing import shared_memory

        key = id(arena)
        entry = self._by_arena.get(key)
        if entry is not None and entry[0] is arena:
            desc = entry[1]
            self._refs[desc.segment] += 1
            return desc
        ok, reason = shm_available(arena.nbytes)
        if not ok:
            raise ConfigurationError(f"shared-memory transport unavailable: {reason}")
        cols, total = _layout(arena)
        shm = None
        for _ in range(8):  # name collisions: extremely unlikely, retried
            name = f"{self._prefix}-{self._seq}"
            self._seq += 1
            try:
                shm = shared_memory.SharedMemory(name=name, create=True, size=max(total, 1))
                break
            except FileExistsError:  # pragma: no cover - collision
                continue
        if shm is None:  # pragma: no cover - eight collisions
            raise ConfigurationError(
                f"could not allocate a shared segment under {self._prefix!r}"
            )
        for attr, dtype, length, offset in cols:
            view = np.ndarray(length, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
            view[:] = getattr(arena, attr)
        desc = ArenaDescriptor(
            segment=shm.name,
            arena_name=arena.name,
            names=arena.names,
            columns=tuple(cols),
            nbytes=total,
        )
        self._segments[desc.segment] = shm
        self._refs[desc.segment] = 1
        self._by_arena[key] = (arena, desc)
        _SHM_BYTES_MAPPED.add(total)
        return desc

    #: Workers attach through the descriptor alone — no pool needed.
    attach = staticmethod(attach_arena)

    def release(self, descriptor: ArenaDescriptor) -> None:
        """Drop one reference; unlink the segment when none remain."""
        name = descriptor.segment
        if name not in self._segments:
            return
        self._refs[name] -= 1
        if self._refs[name] > 0:
            return
        self._unlink(name)

    def close(self) -> None:
        """Force-unlink every owned segment (idempotent; atexit-safe)."""
        for name in list(self._segments):
            self._unlink(name)
        self._by_arena.clear()
        try:
            atexit.unregister(self._atexit)
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def _unlink(self, name: str) -> None:
        shm = self._segments.pop(name, None)
        self._refs.pop(name, None)
        self._by_arena = {
            k: v for k, v in self._by_arena.items() if v[1].segment != name
        }
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:  # pragma: no cover - straggler views
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    # ---- context management --------------------------------------------

    def __enter__(self) -> "ArenaPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass
