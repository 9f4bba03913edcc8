"""The paper's primary contribution: the energy-performance scaling
model (Eqs. 1-6), the communication bound (Eq. 8), the crossover model
(Eq. 9), and the study driver reproducing the evaluation matrix."""

from .choice import (
    Configuration,
    choice_table,
    configurations,
    energy_delay_product,
    energy_to_solution,
    pareto_frontier,
    select_under_power_cap,
)
from .bounds import (
    OMEGA_CLASSICAL,
    OMEGA_STRASSEN,
    CommunicationBound,
    bound_crossover_memory,
    caps_bandwidth_bound,
    classical_bandwidth_bound,
    communication_bound_words,
)
from .crossover import CrossoverAnalysis, analyze_crossover, crossover_dimension
from .ep import EPConvention, EPMeasurement, ep_ratio, ep_total, ep_total_planes
from .report import (
    fig3_slowdown_series,
    table1_environment,
    fig456_power_series,
    fig7_scaling_series,
    table2_slowdown,
    table3_power,
    table4_ep,
)
from .protocol import ExperimentProtocol, ProtocolResult, TrialStats
from .sensitivity import SensitivityPoint, channel_sweep, sensitivity_table
from .scaling import (
    ScalingClass,
    ScalingPoint,
    classify_scaling,
    ep_scaling,
    linear_threshold,
    scaling_series,
)
from .study import (
    PAPER_SIZES,
    PAPER_THREADS,
    RunOptions,
    Study,
    StudyConfig,
    StudyResult,
    StudyRun,
)

__all__ = [
    "CommunicationBound",
    "Configuration",
    "choice_table",
    "configurations",
    "energy_delay_product",
    "energy_to_solution",
    "pareto_frontier",
    "select_under_power_cap",
    "CrossoverAnalysis",
    "EPConvention",
    "EPMeasurement",
    "ExperimentProtocol",
    "ProtocolResult",
    "TrialStats",
    "OMEGA_CLASSICAL",
    "OMEGA_STRASSEN",
    "PAPER_SIZES",
    "PAPER_THREADS",
    "ScalingClass",
    "ScalingPoint",
    "SensitivityPoint",
    "channel_sweep",
    "sensitivity_table",
    "RunOptions",
    "Study",
    "StudyConfig",
    "StudyResult",
    "StudyRun",
    "analyze_crossover",
    "bound_crossover_memory",
    "caps_bandwidth_bound",
    "classical_bandwidth_bound",
    "classify_scaling",
    "communication_bound_words",
    "crossover_dimension",
    "ep_ratio",
    "ep_scaling",
    "ep_total",
    "ep_total_planes",
    "fig3_slowdown_series",
    "fig456_power_series",
    "fig7_scaling_series",
    "linear_threshold",
    "scaling_series",
    "table1_environment",
    "table2_slowdown",
    "table3_power",
    "table4_ep",
]
