#!/usr/bin/env python
"""Eq. 2 on a genuinely mixed workload, plus power-capped choice.

Part 1 — the paper's Eq. 2 ("complex algorithms that contain both
sequential and parallel components") applied to block LU factorization:
sequential diagonal panels, parallel triangular solves and trailing
updates.  Shows the Amdahl effect on the EP ratio.

Part 2 — the paper's motivating scenario (§I, §VI-D): given a facility
power cap, which (algorithm, thread count) should you run?  Under a
generous cap the blocked DGEMM at full threads wins; tighten the cap
and the choice shifts into the Strassen family.

Run:  python examples/mixed_workload.py
"""

from repro import Study, haswell_e3_1225
from repro.algorithms import BlockLU, mixed_ep
from repro.core import choice_table, pareto_frontier, select_under_power_cap
from repro.sim import Engine
from repro.util.tables import TextTable


def part1_mixed() -> None:
    machine = haswell_e3_1225()
    lu = BlockLU(machine, block=128)
    engine = Engine(machine)

    print("Eq. 2 on block LU (n=1024): EP_t across thread counts")
    table = TextTable(
        ["threads", "T_s (s)", "max T_p (s)", "serial %", "EP_t"], ndigits=4
    )
    reports = {}
    for threads in (1, 2, 3, 4):
        report = mixed_ep(lu, 1024, threads, engine=engine)
        reports[threads] = report
        table.add_row(
            threads,
            report.sequential.elapsed_s,
            report.parallel.elapsed_s,
            100 * report.sequential_fraction,
            report.ep_t,
        )
    print(table.to_ascii())
    s4 = reports[4].ep_t / reports[1].ep_t
    print(
        f"\nEP_t scaling S(4) = {s4:.2f} vs linear threshold 4.0 — the\n"
        "sequential panels damp the scaling a pure-parallel matmul shows.\n"
    )


def part2_power_cap() -> None:
    machine = haswell_e3_1225()
    study = Study(machine, sizes=(512,), threads=(1, 2, 3, 4), execute_max_n=0, verify=False)
    result = study.run().result

    print("operating points at n=512 (Pareto-optimal marked *):")
    print(choice_table(result, 512).to_ascii())
    print()
    frontier = pareto_frontier(result, 512)
    print(f"Pareto frontier: {len(frontier)} of 12 points")
    for cap in (200.0, 45.0, 35.0, 25.0):
        pick = select_under_power_cap(result, 512, cap, metric="peak")
        if pick is None:
            print(f"  cap {cap:5.1f} W: infeasible")
        else:
            print(
                f"  cap {cap:5.1f} W: {pick.algorithm:9s} x{pick.threads} "
                f"-> {pick.time_s * 1e3:7.3f} ms at {pick.peak_power_w:5.1f} W peak"
            )
    print(
        "\nAs the facility cap tightens, 'the peak parallel performance of\n"
        "OpenBLAS cannot be realized due to a lack of available power'\n"
        "(§VI-D) and the communication-avoiding points take over."
    )


if __name__ == "__main__":
    part1_mixed()
    print("=" * 70)
    part2_power_cap()
