"""Self-tests of the benchmark: ``python -m pytest perf/``."""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(PERF))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---- self time ------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 3] (which holds c [1.5, 2]) and b [4, 5].
    spans = [
        ["a", 0.0, 10.0, -1, 1],
        ["b", 1.0, 3.0, 0, 1],
        ["c", 1.5, 2.0, 1, 1],
        ["b", 4.0, 5.0, 0, 1],
    ]
    stats = layers.layer_stats(spans)
    assert stats["a"] == {"calls": 1, "self_s": 7.0}
    assert stats["b"] == {"calls": 2, "self_s": 2.5}
    assert stats["c"] == {"calls": 1, "self_s": 0.5}
    assert sum(s["self_s"] for s in stats.values()) == layers.top_level_s(spans) == 10.0


class _Target:
    def outer(self):
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        return None


_TABLE = (
    ("outer", __name__, "_Target.outer"),
    ("inner", __name__, "_Target.inner"),
    ("gone", __name__, "_Target.removed"),
    ("gone_module", "no_such_module_anywhere", "f"),
)


def test_wrapped_calls_nest_and_restore():
    original = _Target.__dict__["outer"]
    recorder = layers.Recorder()
    handle = layers.install(recorder, _TABLE)
    try:
        assert _Target().outer() == "done"
        other = threading.Thread(target=_Target().inner)
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
    finally:
        handle.restore()
    assert handle.missing == {"gone", "gone_module"}
    assert _Target.__dict__["outer"] is original
    spans = recorder.export()
    names = [s[layers.NAME] for s in spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert [s[layers.PARENT] for s in spans] == [-1, 0, 0, -1]  # the thread's call is a root
    stats = layers.layer_stats(spans)
    outer = spans[0]
    inner_in_outer = sum(s[layers.END] - s[layers.START] for s in spans[1:3])
    assert stats["outer"]["self_s"] == pytest.approx(
        outer[layers.END] - outer[layers.START] - inner_in_outer, abs=1e-12)


def test_missing_layer_reports_null():
    spans = [["core.driver", 0.0, 1.0, -1, 1], ["runtime.schedule", 0.2, 0.6, 0, 1]]
    record = {"result": {"spans": spans, "counters": {}, "missing": ["linalg.verify"],
                         "ops": [{"t0": 0.0, "wall_s": 1.0, "cpu_s": 0.9, "ok": True}]}}
    metrics = run.per_layer("cost_sweep", record)
    assert metrics["linalg.verify.calls"] is None
    assert metrics["linalg.verify.self_s"] is None
    assert metrics["linalg.verify.share"] is None
    assert metrics["runtime.schedule.share"] == pytest.approx(0.4)
    assert metrics["core.driver.self_s"] == pytest.approx(0.6)
    assert metrics["runtime.compiled_frac"] == 1.0


def _probe(samples) -> run.SpeedProbe:
    """A speed probe holding ``(start, duration)`` samples, never started."""
    probe = run.SpeedProbe(0)
    for start, duration in samples:
        probe.starts.append(start)
        probe.durations.append(duration)
    return probe


def test_times_are_scaled_by_the_probe_over_their_interval():
    ref = run.REFERENCE_PROBE_S
    # The host runs at half speed for the first 50 s, then at full speed.
    probe = _probe([(t / 10, 2 * ref if t < 500 else ref) for t in range(1000)])
    assert probe.scaled(10.0, 4.0, 3.0) == pytest.approx(1.5)
    assert probe.scaled(10.0, 4.0, 3.0, 1.25) == pytest.approx(3.0 / 2 ** 1.25)
    assert probe.scaled(60.0, 4.0, 3.0) == pytest.approx(3.0)
    assert probe.slowdown(20.0, 20.001) == pytest.approx(2.0)  # widened to PROBE_MIN_WINDOW_S
    with pytest.raises(RuntimeError):
        probe.slowdown(500.0, 501.0)


def test_slowdown_follows_the_slow_share_of_the_interval():
    ref = run.REFERENCE_PROBE_S
    # Alternating fast and slow stretches, slow for 40% and then 60% of
    # the time: a median would jump between the modes, the mean moves
    # with the share.
    def mixed(slow_share: float) -> run.SpeedProbe:
        return _probe([(t / 100, 1.5 * ref if t % 10 < slow_share * 10 else ref)
                       for t in range(1000)])

    assert mixed(0.4).slowdown(0.0, 10.0) == pytest.approx(1.2, rel=0.02)
    assert mixed(0.6).slowdown(0.0, 10.0) == pytest.approx(1.3, rel=0.02)
    # One sample far out (an interrupt, say) is trimmed away.
    spiky = _probe([(t / 100, 20 * ref if t == 500 else ref) for t in range(1000)])
    assert spiky.slowdown(0.0, 10.0) == pytest.approx(1.0)


def test_fastest_cpu_follows_the_recent_probe_samples(tmp_path):
    ref = run.REFERENCE_PROBE_S
    runner = run.Runner(tmp_path, 0.0, {
        0: _probe([(t, ref) for t in range(100)]),
        1: _probe([(t, 2 * ref if t < 90 else ref / 2) for t in range(100)]),
    })
    assert runner.fastest_cpu() == 0
    runner.probes[1].durations.extend([ref / 2] * 50)
    assert runner.fastest_cpu() == 1


def test_hot_latency_uses_a_fixed_number_of_repetitions():
    ref = run.REFERENCE_PROBE_S
    # cpu 1 runs at half speed: its times scale down by that.
    probes = {0: _probe([(t / 10, ref) for t in range(100)]),
              1: _probe([(t / 10, 2 * ref) for t in range(100)])}
    window = workloads.HOT_WINDOW

    def rep(hot_ms: list[float], slowdown: list[float], cpu: int) -> dict:
        return {"traced": False, "rss_mb": 100.0, "cpu": cpu,
                "result": {"setup": [1.0, 0.1, 0.1],
                           "ops": [{"t0": 2.0, "wall_s": 1.2, "cpu_s": 1.0}],
                           "hot_s": [ms / 1e3 for ms in hot_ms for _ in range(window)],
                           "hot_probe_s": [s * ref for s in slowdown]}}

    # Each hot window is scaled by the probe run after it; a repetition
    # past the first HOT_REPS must not move the median window.
    hot_half_speed = 2 ** run.HOT_SLOWDOWN_EXPONENT
    first =([rep([9.0, 9.0], [1.0, 1.0], cpu=0)] * (run.HOT_REPS - 1)
             + [rep([4.0 * hot_half_speed, 3.0], [2.0, 1.0], cpu=1)])
    metrics, reported = run.end_to_end("cost_sweep", first + [rep([0.1], [1.0], cpu=0)],
                                       [], probes)
    scaled = [4.0, 3.0] + [9.0] * 2 * (run.HOT_REPS - 1)
    assert metrics["hot_p50_ms"] == pytest.approx(statistics.median(scaled))
    assert sorted(reported["samples"].items()) == sorted({
        "setup": run.HOT_REPS + 1, "cold": run.HOT_REPS + 1, "hot": 2 * window * run.HOT_REPS,
        "hot_windows": 2 * run.HOT_REPS, "reps": run.HOT_REPS + 1}.items())
    assert sorted(run.cold_scaled("cost_sweep", r, probes)[0] for r in first) == \
        pytest.approx([1 / 2 ** run.COLD_EXPONENTS["cost_sweep"]] + [1.0] * (run.HOT_REPS - 1))


# ---- digests --------------------------------------------------------------


def test_study_digest_is_deterministic_and_path_independent():
    paper = workloads.study_digest(workloads.run_study("paper_study", 2015, "smoke"))
    again = workloads.study_digest(workloads.run_study("paper_study", 2015, "smoke"))
    cost = workloads.study_digest(workloads.run_study("cost_sweep", 7, "smoke"))
    assert paper == again == cost == workloads.golden("smoke", "paper_study")


def test_netsim_digest_is_deterministic():
    digests = [
        workloads.netsim_digest([s.run(n, r) for s, n, r in workloads.network_sweeps("smoke")])
        for _ in range(2)
    ]
    assert digests[0] == digests[1] == workloads.golden("smoke", "netsim_sweep")


def test_service_digest_ignores_key_and_source():
    cell = {"algorithm": "caps", "n": 64, "key": "k1", "source": "computed", "elapsed_s": 0.5}
    hot = dict(cell, key="k2", source="store")
    assert workloads.service_digest([cell]) == workloads.service_digest([hot])
    assert workloads.service_digest([cell]) != workloads.service_digest([dict(cell, n=128)])


# ---- the whole benchmark at reduced size ----------------------------------


def _run(tmp_path: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perf/run.py", "--smoke", "--seconds", "0", "--seed", "5",
         "--out", str(tmp_path / "out"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_reduced_pass_emits_every_metric_with_unit(tmp_path, trace, section):
    proc = _run(tmp_path, "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in workloads.WORKLOADS:
        for metric in SPEC[section]:
            entry = result["metrics"][f"{workload}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
    if trace == "1":
        for workload in workloads.WORKLOADS:
            trace_doc = json.loads((tmp_path / "out" / "traces" / f"{workload}.json").read_text())
            assert any(e["ph"] == "X" for e in trace_doc["traceEvents"])


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---- comparison -----------------------------------------------------------


def _pairs(base, head):
    return list(zip(base, head))


@pytest.mark.parametrize("base, head, bound, expected", [
    ([10.0 + i * 0.01 for i in range(10)], [9.0 + i * 0.01 for i in range(10)], 0.1, "improved"),
    ([10.0 + i * 0.01 for i in range(10)], [12.0 + i * 0.01 for i in range(10)], 0.1, "regressed"),
    ([10.0 + i * 0.01 for i in range(10)], [10.0 + i * 0.011 for i in range(10)], 0.1, "unchanged"),
    ([5.0, 15.0] * 5, [6.0, 14.0] * 5, 0.1, "unresolved"),
    ([10.0 + i * 0.01 for i in range(10)], [12.0 + i * 0.01 for i in range(10)], None, "regressed"),
])
def test_compare_verdicts(base, head, bound, expected):
    verdict, _ = compare.verdict(base, head, _pairs(base, head), True, bound)
    assert verdict == expected
