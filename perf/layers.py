"""Benchmark-owned layer timers: one table of wrapped entry points.

The traced pass measures the program from the outside.  :func:`install`
replaces each public entry point named in :data:`LAYERS` with a timer
that records a span ``[name, start, end, parent, thread]`` and calls the
original; nothing inside the program changes.  Spans stay in memory
until the worker exits and hands them to the parent.

A layer's *self time* is its spans' durations minus the part covered by
their wrapped children (children always nest inside their parent on the
parent's own thread, so that is a plain subtraction).  The driver layers
(``core.driver``, ``distributed.driver``) wrap the whole command, so the
self times of one command's spans add up to its wall time.

Timestamps come from :func:`time.perf_counter`, which on Linux reads the
system-wide ``CLOCK_MONOTONIC``: spans recorded by the service's client
and server processes share one time base and merge into one trace.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from pathlib import Path

#: ``(layer, module, attribute path)`` of every wrapped entry point.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("core.driver", "repro.api", "Study.run"),
    ("algorithms.lower", "repro.algorithms.base", "MatmulAlgorithm.build_cached"),
    ("runtime.schedule", "repro.runtime.scheduler", "Scheduler.run"),
    ("sim.measure", "repro.sim.engine", "Engine.measure"),
    ("linalg.verify", "repro.algorithms.base", "BuildResult.verify"),
    ("distributed.driver", "repro.distributed.netsim", "NetworkSweep.run"),
    ("distributed.lower", "repro.distributed.netsim", "build_events"),
    ("runtime.netsweep", "repro.runtime.rankevents", "RankEventProgram.simulate"),
    ("core.store_get", "repro.core.resultstore", "ResultStore.get"),
    ("core.store_put", "repro.core.resultstore", "ResultStore.put"),
    ("service.compute", "repro.service.executor", "CellExecutor.compute"),
)

LAYER_NAMES: tuple[str, ...] = tuple(name for name, _, _ in LAYERS)

# Exported span fields (a span is a list so the timer can close it in place).
NAME, START, END, PARENT, THREAD = range(5)


class Recorder:
    """In-memory span store shared by every installed timer."""

    def __init__(self):
        self._spans: list[list] = []
        self._local = threading.local()

    def _open(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, time.perf_counter(), None, stack[-1] if stack else None,
                threading.get_ident()]
        self._spans.append(span)  # list.append is atomic across threads
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()

    def timed(self, name: str, fn):
        """*fn* wrapped in a timer that records one span per call."""
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def timer(*args, **kwargs):
            span = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(span)

        return timer

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a benchmark-side phase."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def export(self) -> list[list]:
        """Finished spans, each parent given as an index into the list."""
        done = [s for s in self._spans if s[END] is not None]
        index = {id(s): i for i, s in enumerate(done)}
        return [
            [s[NAME], s[START], s[END],
             -1 if s[PARENT] is None else index.get(id(s[PARENT]), -1), s[THREAD]]
            for s in done
        ]


class Installed:
    """Handle on installed timers: which layers are live, and undo."""

    def __init__(self):
        self.missing: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(recorder: Recorder, table=LAYERS) -> Installed:
    """Wrap every entry point in *table*; a target that no longer exists
    is recorded in ``missing`` (its layer then reports ``null``)."""
    handle = Installed()
    for layer, module_name, path in table:
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError, TypeError):
            handle.missing.add(layer)
            continue
        handle._undo.append((owner, attr, original))
        setattr(owner, attr, recorder.timed(layer, original))
    return handle


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """``{layer: {"calls", "self_s"}}`` over exported *spans*."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        entry = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (s[END] - s[START]) - covered[i]
    return out


def top_level_s(spans: list[list]) -> float:
    """Summed duration of the root spans (those without a wrapped parent)."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def write_chrome_trace(path: Path, processes: dict[str, list[list]], meta: dict) -> Path:
    """One Chrome ``trace_event`` document: a track per (process, thread),
    one complete slice per span, ``args.parent`` naming its parent."""
    starts = [s[START] for spans in processes.values() for s in spans]
    t0 = min(starts) if starts else 0.0
    events: list[dict] = []
    for pid, (label, spans) in enumerate(processes.items()):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                       "args": {"name": label}})
        for s in spans:
            events.append({
                "name": s[NAME],
                "cat": "perf",
                "ph": "X",
                "pid": pid,
                "tid": s[THREAD],
                "ts": (s[START] - t0) * 1e6,
                "dur": (s[END] - s[START]) * 1e6,
                "args": {"parent": spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None},
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                                "otherData": meta}))
    return path
