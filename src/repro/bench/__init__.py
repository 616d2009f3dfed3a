"""Experiment harness regenerating the paper's tables and figures."""

from .experiments import EXPERIMENTS, standard_methods
from .harness import (
    ExperimentResult,
    MethodSeries,
    SweepPoint,
    run_experiment,
)
from .report import format_result

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "MethodSeries",
    "SweepPoint",
    "format_result",
    "run_experiment",
    "standard_methods",
]
