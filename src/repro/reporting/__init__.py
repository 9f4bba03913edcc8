"""Reporting: ASCII charts for the paper's figures, Gantt views of
schedules, and study serialization (markdown/CSV/JSON)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".ascii": ("AsciiChart",),
    ".emit": ("FrozenStudy", "load_study_json", "study_to_dict", "study_to_markdown",
              "write_study_csv", "write_study_json"),
    ".figures": ("Figure", "fig1_schematic", "fig2_traversal", "fig3_figure", "fig4_figure",
                 "fig5_figure", "fig6_figure", "fig7_figure"),
    ".gantt": ("render_gantt",),
    ".tracefile": ("schedule_to_trace_events", "write_chrome_trace"),
    # Observability phase/metric tables render through the same TextTable
    # machinery as the paper tables; surfaced here so reporting is the one
    # place callers fetch tabular views from.
    "..observability.export": ("metrics_table", "phase_table"),
})
