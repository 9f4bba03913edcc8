"""Chrome trace-event export, schema validation, and the phase table."""

import json

import pytest

from repro.observability import trace
from repro.observability.export import (
    events_to_spans,
    layer_table,
    metrics_table,
    phase_table,
    read_trace_json,
    spans_to_chrome_events,
    trace_payload,
    validate_chrome_trace,
    write_trace_json,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import Span, tracing
from repro.util.errors import ValidationError


@pytest.fixture()
def tracer():
    with tracing() as tr:
        with trace.span("study.run", cells=2):
            with trace.span("cell", alg="caps", n=256):
                pass
            with trace.span("cell", alg="strassen", n=256):
                pass
    return tr


class TestChromeEvents:
    def test_leading_metadata_then_complete_events(self, tracer):
        events = spans_to_chrome_events(tracer)
        assert events[0]["ph"] == "M"
        body = events[1:]
        assert len(body) == 3
        assert all(ev["ph"] == "X" for ev in body)

    def test_timestamps_rebased_to_zero(self, tracer):
        body = spans_to_chrome_events(tracer)[1:]
        assert min(ev["ts"] for ev in body) == 0.0

    def test_args_carry_attrs_depth_and_cpu(self, tracer):
        body = spans_to_chrome_events(tracer)[1:]
        cell = next(ev for ev in body if ev["name"] == "cell")
        assert cell["args"]["alg"] in ("caps", "strassen")
        assert cell["args"]["depth"] == 1
        assert "cpu_ms" in cell["args"]

    def test_open_spans_are_skipped(self):
        with tracing() as tr:
            trace.span("never-closed")
        assert len(spans_to_chrome_events(tr)) == 1  # metadata only

    def test_payload_is_json_serializable_and_valid(self, tracer):
        payload = trace_payload(tracer, metrics={}, meta={"command": "t"})
        json.dumps(payload)  # must not raise
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["meta"]["command"] == "t"


class TestFileRoundTrip:
    def test_write_read_validate(self, tracer, tmp_path):
        reg = MetricsRegistry()
        reg.counter("hits").add(2)
        path = write_trace_json(
            tmp_path / "t.json", tracer, metrics=reg, meta={"wall_s": 1.0}
        )
        data = read_trace_json(path)
        assert validate_chrome_trace(data) == []
        assert data["otherData"]["metrics"]["hits"]["value"] == 2.0
        assert data["otherData"]["meta"]["wall_s"] == 1.0

    def test_read_rejects_junk(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("not json")
        with pytest.raises(ValidationError):
            read_trace_json(p)
        p.write_text('{"no": "events"}')
        with pytest.raises(ValidationError):
            read_trace_json(p)

    def test_events_to_spans_inverts_export(self, tracer):
        data = trace_payload(tracer)
        spans = events_to_spans(data)
        assert sorted(sp.name for sp in spans) == ["cell", "cell", "study.run"]
        root = next(sp for sp in spans if sp.name == "study.run")
        orig = tracer.find("study.run")[0]
        assert root.duration_s == pytest.approx(orig.duration_s, rel=1e-3)
        assert root.attrs == {"cells": 2}
        assert root.depth == 0


class TestValidator:
    def test_flags_bad_events(self):
        bad = {
            "traceEvents": [
                {"ph": "X", "ts": 0, "dur": 1},        # missing name
                {"name": "a", "ph": "?", "ts": 0},      # unknown phase
                {"name": "b", "ph": "X", "ts": -5, "dur": 1},  # bad ts
                {"name": "c", "ph": "X", "ts": 0},      # X without dur
            ]
        }
        problems = validate_chrome_trace(bad)
        assert len(problems) == 4

    def test_not_a_list(self):
        assert validate_chrome_trace({"traceEvents": "nope"}) == [
            "traceEvents is not a list"
        ]


class TestTables:
    def test_phase_table_aggregates_by_name(self, tracer):
        table = phase_table(tracer)
        text = table.to_ascii()
        assert "study.run" in text
        assert "cell" in text
        rows = {row[0]: row for row in table.rows}  # cells are strings
        assert rows["cell"][1] == "2"  # count
        assert float(rows["study.run"][4]) == pytest.approx(100.0)  # % of root

    def test_phase_table_respects_max_depth(self, tracer):
        table = phase_table(tracer, max_depth=0)
        assert [row[0] for row in table.rows] == ["study.run"]

    def test_layer_table_splits_cells_by_self_time(self):
        def sp(name, t0, t1, depth):
            return Span(name, t0, t1, 0.0, 0.0, depth, None, {})

        # Pre-order, as recorded: two cells, each simulate holding a
        # schedule (with a plan inside) and a measure.
        spans = [
            sp("study.run", 0.0, 10.0, 0),
            sp("cell", 0.0, 4.0, 1),
            sp("simulate", 0.0, 4.0, 2),
            sp("schedule", 0.0, 3.0, 3),
            sp("plan", 0.0, 1.0, 4),
            sp("measure", 3.0, 3.5, 3),
            sp("cell", 4.0, 10.0, 1),
            sp("simulate", 4.0, 9.0, 2),
            sp("schedule", 4.0, 6.0, 3),
            sp("plan", 4.0, 4.5, 4),
            sp("measure", 6.0, 9.0, 3),
        ]
        payload = {"traceEvents": spans_to_chrome_events(spans)}
        for source in (spans, events_to_spans(payload)):
            rows = {r[0]: r for r in layer_table(source).rows}
            assert "study.run" not in rows  # outside every cell
            self_ms = {k: float(r[2]) for k, r in rows.items()}
            assert self_ms == pytest.approx(
                {"plan": 1500.0, "schedule": 3500.0, "measure": 3500.0,
                 "simulate": 500.0, "cell": 1000.0}, abs=1e-3
            )
            assert rows["plan"][1] == "2"
            assert float(rows["schedule"][3]) == pytest.approx(35.0)

    def test_metrics_table_lists_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z.hits").add(1)
        reg.gauge("a.bytes", unit="B").set(2)
        names = [row[0] for row in metrics_table(reg).rows]
        assert names == ["a.bytes", "z.hits"]
