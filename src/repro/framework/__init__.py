"""Experiment lifecycle orchestration: the framework's high-level API."""

from .convergence import (
    STATE_CHANGING,
    ConvergenceMeasurement,
    MeasurementWindow,
    measure_event,
)
from .experiment import Experiment, ExperimentConfig, ExperimentError
from .traffic import LossReport, ProbeStream

__all__ = [
    "STATE_CHANGING",
    "ConvergenceMeasurement",
    "MeasurementWindow",
    "measure_event",
    "Experiment",
    "ExperimentConfig",
    "ExperimentError",
    "LossReport",
    "ProbeStream",
]
