"""Golden per-cell verification reports of a small default study.

``numerics_golden.json`` records, for every verified cell of a default
:class:`~repro.api.Study` over sizes 128 and 256 and threads 1..4, the
``(abs_error.hex(), bound.hex())`` pair its numerics check reported.
The pairs were recorded before verification reports were memoized per
(program, DAG, operands), so the test pins that a memoized study
reports every cell's error and bound bit for bit as a study that ran
every cell's numerics.

Regenerate (only after a deliberate numerics change)::

    PYTHONPATH=src python tests/algorithms/test_numerics_golden.py
"""

import json
from pathlib import Path

from repro.algorithms.base import MatmulAlgorithm
from repro.api import Study
from repro.machine.specs import haswell_e3_1225

GOLDEN = Path(__file__).with_name("numerics_golden.json")
SIZES = (128, 256)
THREADS = (1, 2, 3, 4)


def cell_reports(sizes=SIZES, threads=THREADS) -> dict[str, list[str]]:
    """``"alg/n/threads"`` -> ``[abs_error.hex(), bound.hex()]`` of each
    verified cell of a default study over *sizes* x *threads*."""
    reports = {}
    real = MatmulAlgorithm.check_numerics

    def spy(self, n, p, schedule, simulated, seed=0, inputs=None):
        report = real(self, n, p, schedule, simulated, seed=seed, inputs=inputs)
        reports[f"{self.name}/{n}/{p}"] = [
            float(report.abs_error).hex(), float(report.bound).hex()
        ]
        return report

    MatmulAlgorithm.check_numerics = spy
    try:
        Study(haswell_e3_1225(), sizes=sizes, threads=threads).run()
    finally:
        MatmulAlgorithm.check_numerics = real
    return reports


def test_cell_reports_match_the_golden():
    golden = json.loads(GOLDEN.read_text())
    got = cell_reports()
    assert len(got) == 3 * len(SIZES) * len(THREADS)
    moved = sorted(c for c in got.keys() | golden.keys() if got.get(c) != golden.get(c))
    assert not moved, f"per-cell (abs_error, bound) moved for {moved}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(cell_reports(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
