"""The paper's primary contribution: the energy-performance scaling
model (Eqs. 1-6), the communication bound (Eq. 8), the crossover model
(Eq. 9), and the study driver reproducing the evaluation matrix."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bounds": ("OMEGA_CLASSICAL", "OMEGA_STRASSEN", "CommunicationBound",
                "bound_crossover_memory", "caps_bandwidth_bound",
                "classical_bandwidth_bound", "communication_bound_words"),
    ".choice": ("Configuration", "choice_table", "configurations", "energy_delay_product",
                "energy_to_solution", "pareto_frontier", "select_under_power_cap"),
    ".crossover": ("CrossoverAnalysis", "analyze_crossover", "crossover_dimension"),
    ".ep": ("EPConvention", "EPMeasurement", "ep_ratio", "ep_total", "ep_total_planes"),
    ".protocol": ("ExperimentProtocol", "ProtocolResult", "TrialStats"),
    ".report": ("fig3_slowdown_series", "fig456_power_series", "fig7_scaling_series",
                "table1_environment", "table2_slowdown", "table3_power", "table4_ep"),
    ".scaling": ("ScalingClass", "ScalingPoint", "classify_scaling", "ep_scaling",
                 "linear_threshold", "scaling_series"),
    ".sensitivity": ("SensitivityPoint", "channel_sweep", "sensitivity_table"),
    ".study": ("PAPER_SIZES", "PAPER_THREADS", "RunOptions", "Study", "StudyConfig",
               "StudyResult", "StudyRun"),
})
