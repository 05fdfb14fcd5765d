"""Random graphs from completely random measures.

Stick-breaking samplers for (three-parameter) beta processes, Bernoulli-round
multigraph generation, snapshot graph statistics, log-log power-law fits, and
a config-driven sweep harness with a CLI.
"""

from .measures import (AtomicMeasure, BetaProcessParams, ParameterError,
                       StickBreakingConfig, rate_density, sample_three_param_bp)
from .graphs import (BinaryGraph, GrowthState, MultiGraph, binarize, extend,
                     generate, generate_exact_rounds, grow, start_growth)
from .stats import GraphStats, degrees, summarize, triangles
from .powerlaw import CcdfCurve, FitError, LogLogFit, PowerLawReport, ccdf, classify, fit_loglog
from .experiment import ExperimentConfig, ExperimentError, SweepResult, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure", "BetaProcessParams", "ParameterError", "StickBreakingConfig",
    "rate_density", "sample_three_param_bp",
    "BinaryGraph", "GrowthState", "MultiGraph", "binarize", "extend",
    "generate", "generate_exact_rounds", "grow", "start_growth",
    "GraphStats", "degrees", "summarize", "triangles",
    "CcdfCurve", "FitError", "LogLogFit", "PowerLawReport", "ccdf", "classify", "fit_loglog",
    "ExperimentConfig", "ExperimentError", "SweepResult", "run_sweep",
    "__version__",
]
