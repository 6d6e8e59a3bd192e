"""Performance prediction: forecasting, Predict(task, R), calibration."""

from repro.prediction.calibration import (
    calibrate_weights,
    provision_site,
    register_tasks,
)
from repro.prediction.forecasting import (
    FORECASTERS,
    AdaptiveForecaster,
    EWMAForecaster,
    Forecaster,
    LastValueForecaster,
    MeanForecaster,
    TrendForecaster,
    make_forecaster,
)
from repro.prediction.predict import (
    MEMORY_PENALTY_SLOPE,
    PerformancePredictor,
    Prediction,
)

__all__ = [
    "AdaptiveForecaster",
    "EWMAForecaster",
    "FORECASTERS",
    "Forecaster",
    "LastValueForecaster",
    "MEMORY_PENALTY_SLOPE",
    "MeanForecaster",
    "PerformancePredictor",
    "Prediction",
    "TrendForecaster",
    "calibrate_weights",
    "make_forecaster",
    "provision_site",
    "register_tasks",
]
