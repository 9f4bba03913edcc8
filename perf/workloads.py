"""The four benchmark workloads: inputs, golden digests and hot answers.

Module-level names are plain data so the parent (``run.py``) can read
them without importing the program; everything that touches ``repro``
imports it inside the function and runs in a worker process.

Every workload has a *cold* operation a user waits for and a *hot*
answer read back from its result.  Only the service's hot traffic is
real re-query traffic; on the other workloads the hot answer is the
program's own code that the matching command runs once on its result,
repeated so its latency can be measured:

``paper_study`` / ``cost_sweep``
    cold: one ``Study.run`` (the paper's 48-cell matrix);
    hot: Tables II-IV from ``repro.core.report``, rendered as
    ``repro study`` prints them.
``netsim_sweep``
    cold: the 2.5D SUMMA sweep plus the distributed CAPS sweep;
    hot: each ``NetworkSweepResult``'s time curve, margin curve and Eq. 8
    violations, what ``repro distributed --simulate`` reads from it.
``service_mixed``
    cold: a grid query the service must compute and store;
    hot: the same grid re-queried, answered from the result store.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from pathlib import Path

WORKLOADS: tuple[str, ...] = ("paper_study", "cost_sweep", "netsim_sweep", "service_mixed")

#: Input sizes.  ``full`` is the benchmark; ``smoke`` runs the same code
#: on inputs small enough for the self-tests.
SCALES: dict[str, dict] = {
    "full": {
        "study_sizes": (512, 1024, 2048, 4096),
        "study_threads": (1, 2, 3, 4),
        "execute_max_n": 1024,
        "net_n": 16384,
        "summa_ranks": (128, 512, 2048),
        "caps_ranks": (49, 343, 2401),
        "grid_sizes": (256, 512, 1024),
        "grid_threads": (1, 2, 3, 4),
        "grid_execute_max_n": 512,
        "cold_queries": 3,
        "hot_queries": 2000,
        # ~2 s of hot answers each, as long as the service's 2000 queries
        # take: a shorter phase catches the host in one speed state only.
        "hot_samples": {"paper_study": 5000, "cost_sweep": 5000, "netsim_sweep": 50000},
        "setup_samples": 8,
    },
    "smoke": {
        "study_sizes": (128, 256),
        "study_threads": (1, 2),
        "execute_max_n": 128,
        "net_n": 1024,
        "summa_ranks": (8, 32),
        "caps_ranks": (7, 49),
        "grid_sizes": (64, 128),
        "grid_threads": (1, 2),
        "grid_execute_max_n": 64,
        "cold_queries": 2,
        "hot_queries": 20,
        "hot_samples": {"paper_study": 20, "cost_sweep": 20, "netsim_sweep": 20},
        "setup_samples": 1,
    },
}

GRID_ALGORITHMS = ("openblas", "strassen", "caps")

#: Consecutive hot answers per window; :func:`window_probe` follows each
#: window.
HOT_WINDOW = 20


def probe_loop() -> int:
    """The speed probe: fixed interpreted work, independent of the program."""
    total = 0
    for i in range(4000):
        total += i * i % 7
    return total


def timed_probe() -> float:
    """CPU time of one :func:`probe_loop`: how fast the CPU ran it, not
    counting time the thread was preempted or the VM's CPU was stolen."""
    t0 = time.thread_time()
    probe_loop()
    return time.thread_time() - t0


def window_probe() -> float:
    """The probe time a window of hot answers is scaled by: the median of
    three, as one run of the loop can land on a burst of load."""
    return statistics.median(timed_probe() for _ in range(3))


def cpu_seconds(pid: int) -> float:
    """CPU time of every live thread of process *pid* (``schedstat``, ns).
    Like ``time.process_time`` for another process; it excludes stolen
    time."""
    total = 0
    task_dir = Path(f"/proc/{pid}/task")
    for task in task_dir.iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (OSError, ValueError, IndexError):  # the thread exited meanwhile
            pass
    return total / 1e9


GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def ops_per_rep(workload: str, scale: str) -> int:
    """Operations one repetition attempts: a ``Study.run``, a
    ``NetworkSweep.run`` or a service query each count as one."""
    if workload == "netsim_sweep":
        return 2
    if workload == "service_mixed":
        return SCALES[scale]["cold_queries"] + SCALES[scale]["hot_queries"]
    return 1


def golden(scale: str, workload: str) -> str:
    return json.loads(GOLDEN_PATH.read_text())[scale][workload]


# ---- digests --------------------------------------------------------------


def study_digest(result) -> str:
    """sha256 over every cell's simulated outputs, sorted by (alg, n, p):
    elapsed time, plane energies, flops, DRAM bytes, each power-trace
    segment and ``repr(stats)``.  Independent of engine, of executed vs
    cost-only cells and of the operand seed."""
    h = hashlib.sha256()
    for key in sorted(result.runs):
        m = result.runs[key]
        e = m.energy
        h.update(repr((key, m.elapsed_s, e.package, e.pp0, e.dram, m.flops,
                       m.bytes_dram)).encode())
        for seg in m.trace.segments:
            watts = sorted((plane.name, w) for plane, w in seg.watts.items())
            h.update(repr((seg.t_start, seg.t_end, watts)).encode())
        h.update(repr(m.stats).encode())
    return h.hexdigest()


def netsim_digest(sweeps) -> str:
    """sha256 over each run's ranks, event count, total time and per-rank
    compute/sent/received arrays."""
    import numpy as np

    h = hashlib.sha256()
    for sweep in sweeps:
        for r in sweep.results:
            h.update(repr((r.algorithm, r.n, r.ranks, r.n_events, r.total_time_s)).encode())
            for column in (r.compute_s, r.sent_bytes, r.recv_bytes):
                h.update(np.asarray(column, dtype=np.float64).tobytes())
    return h.hexdigest()


def cell_rows(cells: list[dict]) -> list[tuple]:
    """A query reply's cell summaries without the seed-dependent store key
    and the cold/hot provenance."""
    return [tuple(sorted((k, v) for k, v in cell.items() if k not in ("key", "source")))
            for cell in cells]


def service_digest(cells: list[dict]) -> str:
    return hashlib.sha256(repr(cell_rows(cells)).encode()).hexdigest()


# ---- cold operations ------------------------------------------------------


def run_study(workload: str, seed: int, scale: str):
    """One ``Study.run`` of *workload*; returns the ``StudyResult``."""
    from repro.api import RunOptions, Study

    s = SCALES[scale]
    if workload == "paper_study":
        study = Study(sizes=s["study_sizes"], threads=s["study_threads"], seed=seed,
                      execute_max_n=s["execute_max_n"])
        return study.run(RunOptions(engine="compiled")).result
    study = Study(sizes=s["study_sizes"], threads=s["study_threads"], seed=seed,
                  execute_max_n=0, verify=False)
    return study.run(RunOptions(engine="fast")).result


def network_sweeps(scale: str) -> list[tuple[object, int, tuple[int, ...]]]:
    """``(sweep, n, rank counts)`` for the 2.5D SUMMA and distributed CAPS
    sweeps on a 2-D torus.  They take no random input."""
    from repro.api import ClusterSpec, NetworkConfig, NetworkSweep, Topology

    s = SCALES[scale]
    cluster = ClusterSpec(topology=Topology("torus2d"))
    return [
        (NetworkSweep(cluster, "summa25d", NetworkConfig(c=2)), s["net_n"], s["summa_ranks"]),
        (NetworkSweep(cluster, "caps-dist"), s["net_n"], s["caps_ranks"]),
    ]


def grid_request(seed: int, scale: str):
    from repro.service import StudyRequest

    s = SCALES[scale]
    return StudyRequest(algorithms=GRID_ALGORITHMS, sizes=s["grid_sizes"],
                        threads=s["grid_threads"], seed=seed,
                        execute_max_n=s["grid_execute_max_n"])


# ---- hot answers ----------------------------------------------------------


def study_tables(result) -> str:
    """Tables II-IV as ``repro study`` prints them."""
    from repro.core.report import table2_slowdown, table3_power, table4_ep

    return "\n".join(t(result).to_ascii() for t in (table2_slowdown, table3_power, table4_ep))


def sweep_summary(sweeps) -> list[tuple]:
    """Each sweep's summary through the ``NetworkSweepResult`` API: time
    curve, Eq. 8 margin curve and the ranks of any floor violation."""
    return [(s.time_curve(), s.margin_curve(), [r.ranks for r in s.violations()])
            for s in sweeps]


def reference_digests(scale: str) -> dict[str, str]:
    """Every workload's digest computed in one process, the service's
    through an in-process ``StudyService`` (how ``golden.json`` is made)."""
    import asyncio

    from repro.service import StudyService

    async def grid() -> list[dict]:
        async with StudyService() as service:
            response = await service.query(grid_request(2015, scale))
        return json.loads(json.dumps([cell.summary() for cell in response.cells]))

    return {
        "paper_study": study_digest(run_study("paper_study", 2015, scale)),
        "cost_sweep": study_digest(run_study("cost_sweep", 2015, scale)),
        "netsim_sweep": netsim_digest([s.run(n, r) for s, n, r in network_sweeps(scale)]),
        "service_mixed": service_digest(asyncio.run(grid())),
    }


if __name__ == "__main__":
    # Regenerate the golden digests:  python3 perf/workloads.py > perf/golden.json
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print(json.dumps({scale: reference_digests(scale) for scale in SCALES}, indent=2))
