#!/usr/bin/env python
"""Offline viewer/validator for the observability Chrome-trace files.

Reads a trace written by ``repro study --trace OUT.json`` (or
``repro.api.StudyRun.write_trace``), prints the run metadata, the
phase-summary table and the metrics dump, and optionally validates it::

  python tools/trace.py out.json               # summarize
  python tools/trace.py out.json --validate    # schema + wall-time check
  python tools/trace.py out.json --depth 2     # + each cell split into layers

From ``--depth 2`` on, a study trace also gets a per-cell layer table:
the self time of every span inside the ``cell`` spans (``plan`` on
the fast kernel, ``schedule`` — the event sweep — ``measure``, lowering, ``numerics`` —
stamping the numerics program, checking the start order and running
the program — and ``verify``).  Each ``numerics`` span carries
``memo="hit"`` when the cell reused a memoized verification report (no
program run, no ``verify`` span) or ``memo="miss"``; the cells'
``numerics.memo_hits`` / ``numerics.memo_misses`` metric deltas say the
same.  A miss's span also says where its operands and reference
product came from: ``inputs="shared"`` from the run's
:class:`~repro.linalg.verify.NumericsInputs`, ``inputs="drawn"`` for
that check alone; ``numerics.reference_products`` counts the products
``a @ b`` paid for.

``--validate`` fails (exit 1) when:

* the document violates the Chrome ``trace_event`` schema
  (``repro.observability.export.validate_chrome_trace``), or
* the run was serial and the per-cell span durations do not sum to the
  recorded study wall time within ``--tol`` (default 1%) — the
  "nothing escaped attribution" invariant.  Parallel runs skip the sum
  check: concurrent cells legitimately overlap, so their rebased
  durations sum to more than the wall clock.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import argparse

from repro.cliargs import add_format_arg, emit, get_format
from repro.observability.export import (
    events_to_spans,
    layer_table,
    metrics_table,
    phase_table,
    read_trace_json,
    validate_chrome_trace,
)
from repro.util.errors import ReproError


def validate(data: dict, tol: float) -> list[str]:
    """All problems with the document (empty list = valid)."""
    problems = validate_chrome_trace(data)
    meta = data.get("otherData", {}).get("meta", {})
    wall_s = meta.get("wall_s")
    parallel = meta.get("parallel", 0)
    spans = events_to_spans(data)
    # The attribution invariant is the dense study driver's: every
    # wall second of a serial study.run is inside some cell span.
    # Other commands (sparse format conversion, distributed setup) do
    # legitimate work outside cells and only get the schema check.
    is_study = any(sp.name == "study.run" and sp.depth == 0 for sp in spans)
    if wall_s and parallel <= 1 and is_study:
        cells = [
            sp for sp in spans if sp.name == "cell" and sp.depth == 1
        ]
        if cells:
            cell_sum = sum(sp.duration_s for sp in cells)
            rel = abs(cell_sum - wall_s) / wall_s
            if rel > tol:
                problems.append(
                    f"serial cell spans sum to {cell_sum:.6f}s but the "
                    f"study wall time is {wall_s:.6f}s "
                    f"({100 * rel:.2f}% off, tolerance {100 * tol:.2f}%)"
                )
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file", help="trace JSON written with --trace")
    add_format_arg(ap, top_level=True)
    ap.add_argument("--validate", action="store_true",
                    help="schema + wall-time attribution checks; exit 1 on failure")
    ap.add_argument("--tol", type=float, default=0.01,
                    help="relative tolerance for the serial cell-sum check")
    ap.add_argument("--depth", type=int, default=1,
                    help="max span depth in the phase summary")
    args = ap.parse_args(argv)

    try:
        data = read_trace_json(args.file)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    other = data.get("otherData", {})
    meta = other.get("meta", {})
    spans = events_to_spans(data)
    fmt = get_format(args)

    print(f"{args.file}: {len(spans)} spans")
    for key in sorted(meta):
        print(f"  {key}: {meta[key]}")
    print()
    print("phase summary:")
    print(emit(phase_table(spans, max_depth=args.depth), fmt))
    if args.depth >= 2 and any(sp.name == "cell" for sp in spans):
        print()
        print("cell layers (self time):")
        print(emit(layer_table(spans), fmt))
    metrics = other.get("metrics", {})
    if metrics:
        print()
        print("metrics:")
        print(emit(metrics_table(metrics), fmt))

    if args.validate:
        problems = validate(data, args.tol)
        if problems:
            print()
            for p in problems:
                print(f"FAIL: {p}")
            return 1
        print()
        print("trace is valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
