"""Execution engine and measurement layer.

Ties the machine model, task runtime and power substrate together:
schedules a task graph, integrates the energy model over the resulting
activity, feeds the emulated RAPL counters and returns the quantities
the paper's evaluation records.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".attribution": ("TaskEnergy", "attribute_energy", "attribution_table"),
    ".calibration": ("PAPER_TARGETS", "CalibrationResult", "PaperTargets", "calibrate",
                     "score_study"),
    ".engine": ("Engine",),
    ".measurement": ("RunMeasurement",),
    ".noise": ("NoiseModel", "NoisyEngine"),
})
