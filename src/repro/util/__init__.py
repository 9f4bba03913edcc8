"""Shared utilities: errors, units, validation and table rendering."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".errors": ("CalibrationError", "ConfigurationError", "MeasurementError", "ReproError",
                "SchedulingError", "SimulationError", "ValidationError"),
    ".tables": ("TextTable", "format_cell"),
    ".units": ("GB", "GHZ", "GiB", "KB", "KHZ", "KiB", "MB", "MHZ", "MiB", "fmt_bytes",
               "fmt_flops", "fmt_hz", "fmt_joules", "fmt_seconds", "fmt_watts"),
    ".validation": ("is_power_of_two", "next_power_of_two", "require_fraction",
                    "require_in_range", "require_nonempty", "require_nonnegative",
                    "require_positive", "require_power_of_two", "require_type"),
})
