#!/usr/bin/env python
"""Quickstart: measure the energy-performance of the three fixtures.

Builds the paper's platform, runs a reduced execution matrix (sizes
256/512, threads 1-4) with full numerical verification, and prints the
three evaluation tables plus the Fig. 7 scaling classification.

Run:  python examples/quickstart.py
"""

from repro import RunOptions, Study, haswell_e3_1225
from repro.core import table2_slowdown, table3_power, table4_ep


def main() -> None:
    machine = haswell_e3_1225()
    print(machine.describe())
    print()

    study = Study(machine, sizes=(256, 512), threads=(1, 2, 3, 4), execute_max_n=512)
    result = study.run(RunOptions()).result

    print("Table II analogue - average slowdown vs OpenBLAS")
    print(table2_slowdown(result).to_ascii())
    print()
    print("Table III analogue - average package watts by thread count")
    print(table3_power(result).to_ascii())
    print()
    print("Table IV analogue - average energy performance (Eq. 1)")
    print(table4_ep(result).to_ascii())
    print()

    print("Fig. 7 - energy-performance scaling classes at n=512:")
    for alg in result.algorithm_names:
        pts = result.scaling_curve(alg, 512)
        curve = ", ".join(f"P={p.parallelism}: S={p.s:.2f}" for p in pts)
        verdict = pts[-1].scaling_class.value
        print(f"  {result.display_names[alg]:9s} {curve}  -> {verdict}")


if __name__ == "__main__":
    main()
