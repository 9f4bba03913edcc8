#!/usr/bin/env python
"""Full reproduction of the paper's evaluation (§VI).

Runs the complete execution matrix — three algorithms x sizes
{512, 1024, 2048, 4096} x threads {1, 2, 3, 4}, the paper's "48 final
result sets" — and regenerates every table and figure: Tables II-IV as
text, Figs. 3-7 as ASCII charts, plus a JSON/CSV dump of all raw runs.

Numerics execute (and verify against numpy) up to n=1024; the two
largest sizes run cost-only, which leaves the simulated time/energy
identical.  Wall time is a minute or two.

Run:  python examples/full_paper_study.py [output_dir]
      REPRO_QUICK=1 python examples/full_paper_study.py   # reduced sizes
"""

import os
import sys
import time
from pathlib import Path

from repro import RunOptions, Study, haswell_e3_1225
from repro.core import table1_environment, table2_slowdown, table3_power, table4_ep
from repro.reporting import (
    fig1_schematic,
    fig2_traversal,
    fig3_figure,
    fig4_figure,
    fig5_figure,
    fig6_figure,
    fig7_figure,
    study_to_markdown,
    write_study_csv,
    write_study_json,
)


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("paper_study_output")
    out_dir.mkdir(exist_ok=True)

    machine = haswell_e3_1225()
    if os.environ.get("REPRO_QUICK") == "1":
        study = Study(machine, sizes=(256, 512, 1024), execute_max_n=512)
    else:
        study = Study(machine, execute_max_n=1024)  # the paper's matrix

    config = study.config
    print(machine.describe())
    print(f"\nrunning {len(config.sizes) * len(config.threads) * 3} configurations...")
    t0 = time.time()
    result = study.run(RunOptions()).result
    print(f"done in {time.time() - t0:.1f}s\n")

    for title, table in (
        ("Table I - simulated infrastructure", table1_environment(machine)),
        ("Table II - average slowdown", table2_slowdown(result)),
        ("Table III - average watts by thread count", table3_power(result)),
        ("Table IV - average energy performance", table4_ep(result)),
    ):
        print(title)
        print(table.to_ascii())
        print()

    print(
        f"OpenBLAS power envelope: min avg {result.min_power_w('openblas'):.1f} W, "
        f"peak {result.peak_power_w('openblas'):.1f} W "
        f"(paper: 17.7 W / 56.4 W)\n"
    )

    print(fig2_traversal())
    print()
    (out_dir / "fig2.txt").write_text(fig2_traversal() + "\n")

    figures = [
        fig1_schematic(),
        fig3_figure(result),
        fig4_figure(result),
        fig5_figure(result),
        fig6_figure(result),
        fig7_figure(result),
    ]
    for fig in figures:
        text = fig.render()
        print(text)
        print()
        (out_dir / f"{fig.name}.txt").write_text(text + "\n")

    (out_dir / "tables.md").write_text(study_to_markdown(result) + "\n")
    write_study_csv(result, out_dir / "runs.csv")
    write_study_json(result, out_dir / "study.json")
    print(f"wrote tables, figures and raw runs to {out_dir}/")


if __name__ == "__main__":
    main()
