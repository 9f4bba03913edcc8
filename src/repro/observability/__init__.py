"""Observability: structured tracing and metrics for the simulator.

Zero-dependency subsystem with three layers:

* :mod:`repro.observability.trace` — nestable wall/CPU spans with a
  one-``is None``-check disabled path (``trace.span("lower", n=...)``);
* :mod:`repro.observability.metrics` — typed counters/gauges in a
  process-wide registry, snapshotted per study cell and merged across
  worker processes;
* :mod:`repro.observability.export` — Chrome ``trace_event`` JSON
  (``chrome://tracing`` / Perfetto), flat metrics JSON, and the ASCII
  phase-summary table.

See DESIGN.md §10 for the architecture and the instrumentation map.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".": ("trace",),
    ".export": ("metrics_table", "phase_table", "read_trace_json", "spans_to_chrome_events",
                "trace_payload", "validate_chrome_trace", "write_trace_json"),
    ".metrics": ("Counter", "Gauge", "MetricsRegistry", "counter", "gauge", "registry"),
    ".trace": ("NULL_SPAN", "Span", "Tracer", "active", "enabled", "install", "span",
               "tracing", "uninstall"),
})
