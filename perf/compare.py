#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py BASE.json HEAD.json``.

Each file is a JSON list of run summaries written by
``run.py --record FILE``; run *i* of BASE and run *i* of HEAD form a
pair, so record them alternately (see README.md).  For every workload
and metric this prints each side's median and quartiles, the fraction
of pairs HEAD wins (ties count for neither side) and a verdict:

``improved``    HEAD wins at least 9 of 10 pairs and the medians differ
                by more than BASE's own quartile spread;
``unresolved``  BASE's spread exceeds the metric's bound, unless every
                HEAD run beats every BASE run;
``regressed``   HEAD's median is worse by more than the bound (metrics
                without a bound: BASE wins as ``improved`` would require);
``unchanged``   otherwise.

Exits 1 when any metric regressed or HEAD failed more operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], head: list[float], pairs: list[tuple[float, float]],
            lower_is_better: bool, bound: float | None) -> tuple[str, float]:
    sign = 1.0 if lower_is_better else -1.0

    def better(a: float, b: float) -> bool:  # a better than b
        return sign * a < sign * b

    b1, bmed, b3 = quartiles(base)
    hmed = statistics.median(head)
    wins = sum(better(h, b) for b, h in pairs) / len(pairs)
    losses = sum(better(b, h) for b, h in pairs) / len(pairs)
    separated = abs(hmed - bmed) > b3 - b1
    if wins >= 0.9 and separated:
        return "improved", wins
    every_better = all(better(h, b) for h in head for b in base)
    if bound is not None:
        if bmed and (b3 - b1) / abs(bmed) > bound and not every_better:
            return "unresolved", wins
        if bmed and sign * (hmed - bmed) / abs(bmed) > bound:
            return "regressed", wins
    elif losses >= 0.9 and separated:
        return "regressed", wins
    return "unchanged", wins


def compare(base_runs: list[dict], head_runs: list[dict]) -> int:
    metrics = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    metrics["hot_p99_ms"] = {"name": "hot_p99_ms", "better": "lower"}  # reported, no bound
    n = min(len(base_runs), len(head_runs))
    print(f"{n} pairs" + ("" if n >= 10 else " (fewer than 10: treat verdicts as provisional)"))
    status = 0
    workloads = [w for w in base_runs[0]["workloads"] if w in head_runs[0]["workloads"]]
    for workload in workloads:
        base = [r["workloads"][workload] for r in base_runs[:n]]
        head = [r["workloads"][workload] for r in head_runs[:n]]
        failed = [sum(r["failed"] for r in side) for side in (base, head)]
        print(f"\n{workload}: failed operations base {failed[0]}, head {failed[1]}")
        if failed[1] > failed[0]:
            status = 1
        print(f"  {'metric':<34} {'base median [q1, q3]':>30} {'head median [q1, q3]':>30}"
              f" {'change':>8} {'wins':>5}  verdict")
        for name, spec in metrics.items():
            pairs = [(_value(b, name), _value(h, name)) for b, h in zip(base, head)]
            pairs = [(b, h) for b, h in pairs if b is not None and h is not None]
            if not pairs:
                continue
            bs, hs = [b for b, _ in pairs], [h for _, h in pairs]
            result, wins = verdict(bs, hs, pairs, spec["better"] == "lower", spec.get("bound"))
            status |= result == "regressed"
            bq, hq = quartiles(bs), quartiles(hs)
            change = (hq[1] - bq[1]) / abs(bq[1]) * 100 if bq[1] else 0.0
            print(f"  {name:<34} {_fmt(bq):>30} {_fmt(hq):>30} {change:>+7.1f}% {wins:>5.2f}"
                  f"  {result}")
    return status


def _value(report: dict, name: str) -> float | None:
    if name in report["metrics"]:
        return report["metrics"][name]
    return report.get("reported", {}).get(name)


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="runs of the parent commit")
    parser.add_argument("head", type=Path, help="runs of the change")
    args = parser.parse_args(argv)
    base, head = (json.loads(p.read_text()) for p in (args.base, args.head))
    if not base or not head:
        parser.error("both files need at least one recorded run")
    return compare(base, head)


if __name__ == "__main__":
    sys.exit(main())
