"""Experiment lifecycle orchestration: the framework's high-level API."""

from .convergence import (
    STATE_CHANGING,
    ConvergenceMeasurement,
    MeasurementWindow,
    measure_event,
)
from .detector import SilenceDetection, SilenceDetector, compare_with_oracle
from .experiment import Experiment, ExperimentConfig, ExperimentError
from .traffic import LossReport, ProbeStream

__all__ = [
    "STATE_CHANGING",
    "ConvergenceMeasurement",
    "MeasurementWindow",
    "measure_event",
    "SilenceDetection",
    "SilenceDetector",
    "compare_with_oracle",
    "Experiment",
    "ExperimentConfig",
    "ExperimentError",
    "LossReport",
    "ProbeStream",
]
