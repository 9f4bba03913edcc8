#!/usr/bin/env python
"""Regenerate the paper-vs-measured comparison behind EXPERIMENTS.md.

Runs the full execution matrix (or a reduced one with --quick), compares
every headline quantity against the paper's published values and prints
a markdown report.  Use after changing cost models or calibration to see
exactly which claims moved.

Run:  python tools/make_experiments_report.py [--quick] [--out FILE]
"""

import argparse
import sys
import time

from repro import Study, haswell_e3_1225
from repro.core import analyze_crossover
from repro.core.scaling import ScalingClass
from repro.sim.calibration import PAPER_TARGETS, score_study

PAPER_TABLE2 = {
    "strassen": {512: 2.872, 1024: 3.477, 2048: 2.874, 4096: 2.637, "avg": 2.965},
    "caps": {512: 2.840, 1024: 2.942, 2048: 2.809, 4096: 2.561, "avg": 2.788},
}
PAPER_TABLE3 = PAPER_TARGETS.power_by_threads
PAPER_TABLE4 = {
    "openblas": {512: 6356.33, 1024: 1052.34, 2048: 136.38, 4096: 19.53, "avg": 1891.15},
    "strassen": {512: 1912.76, 1024: 239.27, 2048: 24.60, 4096: 4.70, "avg": 545.33},
    "caps": {512: 1961.28, 1024: 244.57, 2048: 25.32, 4096: 4.86, "avg": 559.00},
}


def fmt_delta(measured, paper):
    delta = 100.0 * (measured - paper) / paper
    return f"{measured:.3f} | {paper:.3f} | {delta:+.1f}%"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="sizes 512/1024 only")
    ap.add_argument("--out", default=None, help="write the report here too")
    args = ap.parse_args()

    machine = haswell_e3_1225()
    sizes = (512, 1024) if args.quick else (512, 1024, 2048, 4096)
    study = Study(machine, sizes=sizes, execute_max_n=0, verify=False)
    t0 = time.time()
    result = study.run().result
    wall = time.time() - t0

    lines = [
        "# Paper-vs-measured report",
        "",
        f"matrix: sizes {list(sizes)} x threads {list(study.config.threads)}; "
        f"{wall:.1f}s simulated wall; calibration loss "
        f"{score_study(result):.4f}",
        "",
        "## Table II — average slowdown (measured | paper | delta)",
        "",
        "| algorithm | " + " | ".join(str(n) for n in sizes) + " | average |",
        "|" + "---|" * (len(sizes) + 2),
    ]
    for alg in ("strassen", "caps"):
        by_size = result.avg_slowdown_by_size(alg)
        cells = [fmt_delta(by_size[n], PAPER_TABLE2[alg][n]) for n in sizes]
        cells.append(fmt_delta(result.avg_slowdown(alg), PAPER_TABLE2[alg]["avg"]))
        lines.append(f"| {alg} | " + " | ".join(cells) + " |")

    lines += ["", "## Table III — watts by thread count (measured | paper | delta)", ""]
    lines.append("| algorithm | P=1 | P=2 | P=3 | P=4 | average |")
    lines.append("|---|---|---|---|---|---|")
    for alg, paper_row in PAPER_TABLE3.items():
        watts = result.avg_power_by_threads(alg)
        cells = [fmt_delta(watts[p], paper_row[p - 1]) for p in (1, 2, 3, 4)]
        cells.append(f"{result.avg_power_w(alg):.3f}")
        lines.append(f"| {alg} | " + " | ".join(cells) + " |")
    algs = result.algorithm_names
    lines += [
        "",
        f"envelope: lowest per-run average "
        f"{min(result.min_power_w(a) for a in algs):.1f} W, highest "
        f"instantaneous {max(result.peak_power_w(a) for a in algs):.1f} W",
    ]

    lines += ["", "## Table IV — average EP (measured | paper | delta)", ""]
    lines.append("| algorithm | " + " | ".join(str(n) for n in sizes) + " | average |")
    lines.append("|" + "---|" * (len(sizes) + 2))
    for alg, paper_row in PAPER_TABLE4.items():
        by_size = result.avg_ep_by_size(alg)
        cells = [fmt_delta(by_size[n], paper_row[n]) for n in sizes]
        cells.append(fmt_delta(result.avg_ep(alg), paper_row["avg"]))
        lines.append(f"| {alg} | " + " | ".join(cells) + " |")

    lines += ["", "## Fig. 7 — S over threads, class at P=4", ""]
    lines.append("| algorithm | size | S (P=2, 3, 4) | class | paper expectation |")
    lines.append("|---|---|---|---|---|")
    expectations = {
        "openblas": ("superlinear", lambda c: c is ScalingClass.SUPERLINEAR),
        "strassen": ("ideal/linear", lambda c: c is not ScalingClass.SUPERLINEAR),
        "caps": ("near linear", lambda c: True),
    }
    ok = True
    for alg in result.algorithm_names:
        for n in sizes:
            curve = result.scaling_curve(alg, n)
            pt = curve[-1]
            want, check = expectations[alg]
            verdict = "OK" if check(pt.scaling_class) else "**MISMATCH**"
            ok = ok and check(pt.scaling_class)
            s = ", ".join(f"{q.s:.2f}" for q in curve[1:])
            lines.append(
                f"| {alg} | {n} | {s} | {pt.scaling_class.value} "
                f"| {want} {verdict} |"
            )

    analysis = analyze_crossover(machine)
    lines += [
        "",
        "## Eq. 9 crossover",
        "",
        f"y = {analysis.y_mflops:.0f} Mflop/s, z = {analysis.z_mbs:.0f} MB/s: "
        f"crossover n = {analysis.crossover_n:.0f}, max feasible n = "
        f"{analysis.max_feasible_n}, reachable = {analysis.reachable} "
        f"(paper: unreachable)",
    ]

    report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
    return 0 if ok and not analysis.reachable else 1


if __name__ == "__main__":
    sys.exit(main())
