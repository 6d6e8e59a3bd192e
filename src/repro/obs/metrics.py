"""Deterministic sim-time metrics: counters, gauges, histograms.

The paper's Application Analyzer promises "application performance
views" over a running VDCE; this registry is the aggregation layer those
views (and the ``repro obs`` report) read from.  Three instrument kinds,
modelled on the Prometheus data model but driven entirely by the
*simulated* clock:

* :class:`Counter` — monotonically increasing totals (messages sent,
  tasks executed);
* :class:`Gauge` — last-written values (a host's current CPU load);
* :class:`Histogram` — distributions over **fixed, registration-time
  bucket boundaries** (delivery delays, task elapsed times).

Determinism contract (DET001): every series is keyed on the *sorted*
tuple of its label pairs, and every iteration the registry exposes is
sorted by metric name then label key — so exports are byte-identical
across runs and independent of ``PYTHONHASHSEED``.  Nothing in this
module reads the wall clock or any RNG.

Recording is cheap (a dict lookup and an add) but not free; every call
site guards with ``if obs.enabled:``, enforced by reprolint PERF001.
"""

from __future__ import annotations

import re
from typing import Union

#: one series key: label pairs sorted by label name
LabelKey = tuple[tuple[str, str], ...]

#: Default duration buckets (seconds): spans microsecond message hops to
#: multi-minute applications.  Fixed here so two runs (or two hosts)
#: always aggregate into identical boundaries.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
    1.0, 5.0, 10.0, 50.0, 100.0, 500.0)

#: Default size/count buckets for queue depths and similar small integers.
DEFAULT_DEPTH_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _label_key(labels: dict[str, str]) -> LabelKey:
    """Canonical series key: label pairs sorted by label name.

    Sorting here (not at export time) is what makes aggregation
    hash-seed independent: two call sites passing the same labels in
    different keyword order land in the same series.
    """
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class Counter:
    """A monotonically increasing total, partitioned by labels."""

    __slots__ = ("name", "help", "_values")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add *amount* (default 1) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(amount={amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current total of one labelled series (0.0 when never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every labelled series."""
        return sum(self._values.values())

    def samples(self) -> list[tuple[LabelKey, float]]:
        """Every series, sorted by label key (deterministic)."""
        return sorted(self._values.items())


class Gauge:
    """A last-write-wins value, partitioned by labels."""

    __slots__ = ("name", "help", "_values")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        """Overwrite the labelled series with *value*."""
        self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: str) -> None:
        """Adjust the labelled series by *amount* (may be negative)."""
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of one labelled series (0.0 when never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> list[tuple[LabelKey, float]]:
        """Every series, sorted by label key (deterministic)."""
        return sorted(self._values.items())


class HistogramSeries:
    """Aggregated observations of one labelled histogram series."""

    __slots__ = ("bucket_counts", "count", "sum", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        #: one count per boundary plus the +Inf overflow bucket
        self.bucket_counts = [0] * (n_buckets + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Histogram:
    """A distribution over fixed bucket boundaries, partitioned by labels.

    Boundaries are upper-inclusive (Prometheus ``le`` semantics) and
    frozen at registration time, so aggregated output never depends on
    the order or timing of observations.
    """

    __slots__ = ("name", "help", "buckets", "_series")

    kind = "histogram"

    def __init__(self, name: str, buckets: tuple[float, ...] | None = None,
                 help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        bounds = tuple(buckets if buckets is not None
                       else DEFAULT_TIME_BUCKETS)
        if not bounds:
            raise ValueError(f"histogram {name} needs >= 1 bucket boundary")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(
                f"histogram {name} boundaries must be strictly increasing: "
                f"{bounds}")
        self.buckets = bounds
        self._series: dict[LabelKey, HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the labelled series."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = HistogramSeries(len(self.buckets))
            self._series[key] = series
        idx = len(self.buckets)  # +Inf overflow by default
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        series.bucket_counts[idx] += 1
        series.count += 1
        series.sum += value
        if value < series.min:
            series.min = value
        if value > series.max:
            series.max = value

    def series(self, **labels: str) -> HistogramSeries | None:
        """One labelled series' aggregate, or None when never observed."""
        return self._series.get(_label_key(labels))

    def samples(self) -> list[tuple[LabelKey, HistogramSeries]]:
        """Every series, sorted by label key (deterministic)."""
        return sorted(self._series.items(), key=lambda kv: kv[0])


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """The process-wide (well, federation-wide) metric namespace.

    ``counter``/``gauge``/``histogram`` are idempotent by name — the
    second registration of ``net_messages_total`` returns the first
    instrument — so every component can declare its instruments locally
    without central coordination.  Re-registering a name as a different
    kind (or a histogram with different boundaries) is a programming
    error and raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        """Fetch-or-create the named counter."""
        got = self._metrics.get(name)
        if got is None:
            got = Counter(name, help=help)
            self._metrics[name] = got
        elif not isinstance(got, Counter):
            raise ValueError(
                f"metric {name!r} already registered as {got.kind}")
        return got

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Fetch-or-create the named gauge."""
        got = self._metrics.get(name)
        if got is None:
            got = Gauge(name, help=help)
            self._metrics[name] = got
        elif not isinstance(got, Gauge):
            raise ValueError(
                f"metric {name!r} already registered as {got.kind}")
        return got

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None,
                  help: str = "") -> Histogram:
        """Fetch-or-create the named histogram (fixed boundaries)."""
        got = self._metrics.get(name)
        if got is None:
            got = Histogram(name, buckets=buckets, help=help)
            self._metrics[name] = got
        elif not isinstance(got, Histogram):
            raise ValueError(
                f"metric {name!r} already registered as {got.kind}")
        elif buckets is not None and tuple(buckets) != got.buckets:
            raise ValueError(
                f"histogram {name!r} re-registered with different "
                f"boundaries: {tuple(buckets)} vs {got.buckets}")
        return got

    def get(self, name: str) -> Metric | None:
        """The named metric, or None."""
        return self._metrics.get(name)

    def collect(self) -> list[Metric]:
        """Every registered metric, sorted by name (deterministic)."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def __len__(self) -> int:
        return len(self._metrics)

    def clear(self) -> None:
        """Drop every metric (a fresh namespace for a new run)."""
        self._metrics.clear()
