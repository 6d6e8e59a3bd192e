"""Small statistics helpers shared across the library.

These back the paper's monitoring and forecasting machinery: the Group
Manager's "significant change" test uses a confidence-interval width over
a window of recent measurements (paper section 2.3.1, citing [20]), and
schedulers summarise replicated experiment results.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Sequence
from dataclasses import dataclass


def mean(xs: Sequence[float]) -> float:
    """Arithmetic mean; raises ``ValueError`` on an empty sequence."""
    if len(xs) == 0:
        raise ValueError("mean() of empty sequence")
    return float(sum(xs)) / len(xs)


def variance(xs: Sequence[float]) -> float:
    """Unbiased sample variance; 0.0 when fewer than two samples."""
    n = len(xs)
    if n < 2:
        return 0.0
    m = mean(xs)
    return sum((x - m) ** 2 for x in xs) / (n - 1)


def stddev(xs: Sequence[float]) -> float:
    """Unbiased sample standard deviation."""
    return math.sqrt(variance(xs))


# Two-sided critical values of Student's t for common confidence levels,
# indexed by degrees of freedom 1..30; beyond 30 the normal value is used.
# Hard-coded so the core library does not depend on scipy.
_T_TABLE = {
    0.90: [6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833,
           1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734,
           1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703,
           1.701, 1.699, 1.697],
    0.95: [12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
           2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
           2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
           2.048, 2.045, 2.042],
    0.99: [63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250,
           3.169, 3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878,
           2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771,
           2.763, 2.756, 2.750],
}
_Z_VALUES = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}


def t_critical(df: int, confidence: float = 0.95) -> float:
    """Two-sided Student-t critical value for *df* degrees of freedom."""
    if confidence not in _T_TABLE:
        raise ValueError(f"unsupported confidence level {confidence!r}; "
                         f"choose from {sorted(_T_TABLE)}")
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    table = _T_TABLE[confidence]
    if df <= len(table):
        return table[df - 1]
    return _Z_VALUES[confidence]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval ``center +/- half_width``."""

    center: float
    half_width: float
    confidence: float

    @property
    def low(self) -> float:
        return self.center - self.half_width

    @property
    def high(self) -> float:
        return self.center + self.half_width

    def contains(self, x: float) -> bool:
        """True when *x* falls within the interval (inclusive)."""
        return self.low <= x <= self.high


def half_width(xs: Collection[float], confidence: float = 0.95) -> float:
    """Half-width of the Student-t confidence interval for the mean of *xs*.

    One sample gives zero (no spread information), matching the Group
    Manager's behaviour of always forwarding the first measurement.
    *xs* is read where it lies (the Group Manager passes its window
    deque), never copied.
    """
    n = len(xs)
    if n == 0:
        raise ValueError("half_width() of empty sequence")
    if n == 1:
        return 0.0
    m = float(sum(xs)) / n
    var = sum((x - m) ** 2 for x in xs) / (n - 1)
    return t_critical(n - 1, confidence) * math.sqrt(var) / math.sqrt(n)


def confidence_interval(
    xs: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of *xs*."""
    if len(xs) == 0:
        raise ValueError("confidence_interval() of empty sequence")
    return ConfidenceInterval(mean(xs), half_width(xs, confidence),
                              confidence)


def geometric_mean(xs: Sequence[float]) -> float:
    """Geometric mean of positive values (used for speedup summaries)."""
    if len(xs) == 0:
        raise ValueError("geometric_mean() of empty sequence")
    if any(x <= 0 for x in xs):
        raise ValueError("geometric_mean() requires positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def percentile(xs: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``0 <= q <= 100``."""
    if len(xs) == 0:
        raise ValueError("percentile() of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    ys = sorted(xs)
    if len(ys) == 1:
        return float(ys[0])
    pos = (len(ys) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(ys[lo])
    frac = pos - lo
    return float(ys[lo] * (1 - frac) + ys[hi] * frac)
