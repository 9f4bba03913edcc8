"""Exporters: Chrome ``trace_event`` JSON, flat metrics JSON, and an
ASCII phase-summary table.

The Chrome export loads directly in ``chrome://tracing`` and
``ui.perfetto.dev``: one complete (``ph: "X"``) slice per finished
span, nested by timestamp containment on a single track, with the span
attributes in ``args``.  Extra payload (the metrics dump, run metadata)
rides in the top-level ``otherData`` object, which the Chrome format
explicitly allows and ``tools/trace.py`` reads back.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from ..util.errors import ValidationError
from ..util.tables import TextTable
from .metrics import MetricsRegistry, registry
from .trace import Span, Tracer

__all__ = [
    "spans_to_chrome_events",
    "events_to_spans",
    "trace_payload",
    "write_trace_json",
    "read_trace_json",
    "validate_chrome_trace",
    "phase_table",
    "layer_times",
    "layer_table",
    "metrics_table",
]

_US = 1e6  # trace-event timestamps are microseconds

#: Event phases the validator accepts (the subset this repo emits).
_KNOWN_PHASES = {"X", "M", "C", "i", "B", "E"}


def _spanlike(spans) -> list[Span]:
    if isinstance(spans, Tracer):
        return spans.spans
    return [Span.from_dict(s) if isinstance(s, dict) else s for s in spans]


def spans_to_chrome_events(
    spans: "Sequence[Span | dict] | Tracer", pid: int = 0, tid: int = 0
) -> list[dict]:
    """Finished spans as Chrome trace-event dicts.

    Timestamps are rebased so the earliest span starts at ``ts=0``.
    Wall duration maps to ``dur``; CPU seconds and nesting depth are
    carried in ``args`` (with the span's own attributes) so viewers and
    the phase-summary table can reconstruct attribution offline.
    """
    resolved = [sp for sp in _spanlike(spans) if sp.finished]
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": "repro observability"},
        }
    ]
    if not resolved:
        return events
    t0 = min(sp.t_start for sp in resolved)
    for sp in resolved:
        events.append(
            {
                "name": sp.name,
                "cat": "repro",
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": (sp.t_start - t0) * _US,
                "dur": max(sp.duration_s * _US, 0.001),
                "args": {
                    "cpu_ms": round(sp.cpu_s * 1e3, 6),
                    "depth": sp.depth,
                    **sp.attrs,
                },
            }
        )
    return events


def events_to_spans(data: "dict | Sequence[dict]") -> list[Span]:
    """Reconstruct :class:`Span` objects from a trace document.

    The inverse of :func:`spans_to_chrome_events` up to the information
    the format keeps: timestamps are relative to the earliest event,
    CPU time comes back from ``args.cpu_ms``, and parent links are not
    recovered (``depth`` is, which is all :func:`phase_table` needs).
    Lets ``tools/trace.py`` analyze a file offline.
    """
    events = data.get("traceEvents", []) if isinstance(data, dict) else data
    spans: list[Span] = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args", {}))
        cpu_ms = args.pop("cpu_ms", 0.0)
        depth = args.pop("depth", 0)
        t0 = ev["ts"] / _US
        dur = ev["dur"] / _US
        spans.append(
            Span(
                name=ev["name"],
                t_start=t0,
                t_end=t0 + dur,
                cpu_start=0.0,
                cpu_end=cpu_ms / 1e3,
                depth=depth,
                parent=None,
                attrs=args,
            )
        )
    return spans


def trace_payload(
    spans: "Sequence[Span | dict] | Tracer",
    metrics: MetricsRegistry | dict | None = None,
    meta: dict | None = None,
) -> dict:
    """The full JSON document: trace events + metrics + metadata."""
    if metrics is None:
        metrics = registry()
    metrics_dump = metrics.export() if isinstance(metrics, MetricsRegistry) else metrics
    return {
        "traceEvents": spans_to_chrome_events(spans),
        "displayTimeUnit": "ms",
        "otherData": {
            "metrics": metrics_dump,
            "meta": meta or {},
        },
    }


def write_trace_json(
    path: "str | Path",
    spans: "Sequence[Span | dict] | Tracer",
    metrics: MetricsRegistry | dict | None = None,
    meta: dict | None = None,
) -> Path:
    """Write the Chrome-trace document to *path* and return it."""
    path = Path(path)
    payload = trace_payload(spans, metrics=metrics, meta=meta)
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def read_trace_json(path: "str | Path") -> dict:
    """Load a trace document, raising :class:`ValidationError` on junk."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read trace {path}: {exc}") from exc
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValidationError(
            f"{path} is not a Chrome trace document (no traceEvents)"
        )
    return data


def validate_chrome_trace(data: dict) -> list[str]:
    """Schema-check a trace document; returns problems (empty = valid).

    Checks the invariants Chrome/Perfetto rely on: every event carries
    ``name``/``ph``/``pid``/``tid``, timestamps are non-negative
    numbers, complete events carry a non-negative ``dur``, and phases
    are from the known set.
    """
    problems: list[str] = []
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for i, ev in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"{where}: missing name")
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        for key in ("pid", "tid"):
            if key in ev and not isinstance(ev[key], int):
                problems.append(f"{where}: {key} is not an int")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event with bad dur {dur!r}")
    return problems


def phase_table(
    spans: "Sequence[Span | dict] | Tracer", max_depth: int = 1
) -> TextTable:
    """Aggregate finished spans by name into a phase-summary table.

    One row per span name at depth ≤ *max_depth*: invocation count,
    total wall/CPU milliseconds, and share of the root spans' wall time
    — the "where does a study spend its time" view, rendered through
    the same :class:`TextTable` machinery as the paper tables.
    """
    resolved = [sp for sp in _spanlike(spans) if sp.finished]
    root_wall = sum(sp.duration_s for sp in resolved if sp.depth == 0)
    agg: dict[str, list[float]] = {}
    for sp in resolved:
        if sp.depth > max_depth:
            continue
        row = agg.setdefault(sp.name, [0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += sp.duration_s
        row[2] += sp.cpu_s
    table = TextTable(
        ["phase", "count", "wall ms", "cpu ms", "% of root"], ndigits=3
    )
    for name, (count, wall, cpu) in sorted(
        agg.items(), key=lambda kv: -kv[1][1]
    ):
        share = 100.0 * wall / root_wall if root_wall > 0 else 0.0
        table.add_row(name, int(count), wall * 1e3, cpu * 1e3, share)
    return table


def layer_times(
    spans: "Sequence[Span | dict] | Tracer", root: str = "cell", cpu: bool = False
) -> dict[str, list[float]]:
    """``{name: [count, self seconds]}`` over *root* spans and every span
    nested in one; self time is a span's wall (or, with *cpu*, CPU)
    time minus its direct children's.  Parents are recovered from span
    order: spans are recorded and exported in pre-order, so a span's
    parent is the latest earlier span one level up."""
    resolved = [sp for sp in _spanlike(spans) if sp.finished]
    own = [sp.cpu_s if cpu else sp.duration_s for sp in resolved]
    covered = [0.0] * len(resolved)
    inside = [sp.name == root for sp in resolved]
    last: dict[int, int] = {}
    for i, sp in enumerate(resolved):
        parent = last.get(sp.depth - 1)
        last[sp.depth] = i
        if parent is not None:
            covered[parent] += own[i]
            inside[i] = inside[i] or inside[parent]
    agg: dict[str, list[float]] = {}
    for sp, t, inner, keep in zip(resolved, own, covered, inside):
        if keep:
            row = agg.setdefault(sp.name, [0.0, 0.0])
            row[0] += 1
            row[1] += t - inner
    return agg


def layer_table(
    spans: "Sequence[Span | dict] | Tracer", root: str = "cell"
) -> TextTable:
    """:func:`layer_times` as a table: each study cell split into its
    layers (``plan``, ``schedule`` — the event sweep plus schedule
    assembly — ``measure``, lowering, verification, ...) with each
    layer's share of the summed *root* time; the *root* row itself is
    the cells' unattributed remainder."""
    agg = layer_times(spans, root)
    total = sum(self_s for _, self_s in agg.values())  # == root wall time
    table = TextTable(["layer", "count", "self ms", f"% of {root}"], ndigits=3)
    for name, (count, self_s) in sorted(agg.items(), key=lambda kv: -kv[1][1]):
        share = 100.0 * self_s / total if total > 0 else 0.0
        table.add_row(name, int(count), self_s * 1e3, share)
    return table


def metrics_table(metrics: MetricsRegistry | dict | None = None) -> TextTable:
    """The metrics dump as an aligned table (``repro --trace`` footer)."""
    if metrics is None:
        metrics = registry()
    dump = metrics.export() if isinstance(metrics, MetricsRegistry) else metrics
    table = TextTable(["metric", "kind", "value", "unit"], ndigits=3)
    for name, entry in sorted(dump.items()):
        table.add_row(name, entry["kind"], entry["value"], entry.get("unit", ""))
    return table
