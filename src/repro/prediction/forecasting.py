"""Workload forecasting.

Paper section 2.2.1: "The current workload parameters are computed using
forecasting techniques based on a window of most recent workload
measurements."  The repository keeps that window
(:class:`~repro.repository.resource_perf.ResourceRecord.load_window`);
these forecasters turn it into the CPU-load estimate the prediction
function consumes.

The :class:`AdaptiveForecaster` follows the Network Weather Service idea
(Wolski — the same group as the paper's APPLeS citation): keep a family
of simple predictors, track each one's backtest error over the window,
and answer with the current best.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.util.errors import ConfigurationError


class Forecaster:
    """Estimate the next load value from a measurement window."""

    name = "base"

    def forecast(self, window: Sequence[float]) -> float:
        """Predicted next value; windows are oldest-first.

        An empty window forecasts 0.0 (optimistic: unknown machines look
        idle, exactly as a freshly-registered host does in the paper).
        """
        raise NotImplementedError

    def _guard(self, window: Sequence[float]) -> bool:
        return len(window) == 0


class LastValueForecaster(Forecaster):
    """Persistence model: tomorrow looks like today."""

    name = "last-value"

    def forecast(self, window: Sequence[float]) -> float:
        """The latest measurement, unchanged."""
        if self._guard(window):
            return 0.0
        return float(window[-1])


class MeanForecaster(Forecaster):
    """Window mean."""

    name = "mean"

    def forecast(self, window: Sequence[float]) -> float:
        """Arithmetic mean of the window."""
        if self._guard(window):
            return 0.0
        return float(sum(window)) / len(window)


class EWMAForecaster(Forecaster):
    """Exponentially weighted moving average."""

    name = "ewma"

    def __init__(self, alpha: float = 0.4) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError("EWMA alpha must be in (0, 1]")
        self.alpha = alpha
        self.name = f"ewma({alpha})"

    def forecast(self, window: Sequence[float]) -> float:
        if self._guard(window):
            return 0.0
        est = float(window[0])
        for x in window[1:]:
            est = (1 - self.alpha) * est + self.alpha * float(x)
        return est


class TrendForecaster(Forecaster):
    """Least-squares linear extrapolation one step ahead.

    Forecasts are clamped at zero (load cannot be negative).
    """

    name = "trend"

    def forecast(self, window: Sequence[float]) -> float:
        n = len(window)
        if n == 0:
            return 0.0
        if n == 1:
            return float(window[0])
        xs = range(n)
        mean_x = (n - 1) / 2.0
        mean_y = sum(window) / n
        sxx = sum((x - mean_x) ** 2 for x in xs)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, window))
        slope = sxy / sxx
        return max(0.0, mean_y + slope * (n - mean_x))


class AdaptiveForecaster(Forecaster):
    """NWS-style: backtest the family on the window, answer with the best."""

    name = "adaptive"

    def __init__(self) -> None:
        self.family: list[Forecaster] = [
            LastValueForecaster(), MeanForecaster(), EWMAForecaster(0.4),
            TrendForecaster(),
        ]

    def backtest_errors(self, window: Sequence[float]) -> dict[str, float]:
        """Mean absolute one-step-ahead error per family member."""
        errors: dict[str, float] = {}
        for fc in self.family:
            errs = [abs(fc.forecast(window[:i]) - window[i])
                    for i in range(1, len(window))]
            errors[fc.name] = (sum(errs) / len(errs)) if errs else 0.0
        return errors

    def forecast(self, window: Sequence[float]) -> float:
        if len(window) < 3:
            return MeanForecaster().forecast(window)
        errors = self.backtest_errors(window)
        best = min(self.family, key=lambda fc: errors[fc.name])
        return best.forecast(window)


FORECASTERS: dict[str, type[Forecaster]] = {
    "last-value": LastValueForecaster,
    "mean": MeanForecaster,
    "ewma": EWMAForecaster,
    "trend": TrendForecaster,
    "adaptive": AdaptiveForecaster,
}


def make_forecaster(name: str) -> Forecaster:
    try:
        return FORECASTERS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown forecaster {name!r}; expected one of "
            f"{sorted(FORECASTERS)}") from None
