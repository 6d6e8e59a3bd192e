"""``repro.obs`` — sim-time observability: metrics, causal spans, exporters.

One :class:`Observability` handle threads through the whole federation
(facade → daemons → network) and carries the three stores:

* ``obs.metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry` of
  counters/gauges/histograms keyed on sorted label tuples;
* ``obs.spans`` — a :class:`~repro.obs.spans.SpanTracker` holding the
  application → schedule-round → task-execution → message-delivery
  causal tree;
* ``obs.trace`` — the flat :class:`~repro.simcore.trace.Tracer` log of
  what happened when.

The handle's ``enabled`` flag is the one instrumentation switch.  It
defaults to **disabled**, and every instrumented call site guards with
one ``if obs.enabled:`` (enforced by reprolint PERF001 across
``repro``) — so unobserved runs pay one attribute load per site.
Components that are built before an Observability exists fall back to
the shared :data:`OBS_OFF` singleton, which is safe to share precisely
because nothing ever records through a disabled handle.

Exports (:mod:`repro.obs.export`): Chrome ``trace_event`` JSON,
Prometheus text, JSONL — all byte-identical across runs of a fixed
seed.  :mod:`repro.obs.report` renders the ``repro obs`` CLI summary.
"""

from __future__ import annotations

from repro.obs.export import (
    chrome_trace_json,
    spans_to_jsonl,
    to_chrome_trace,
    to_prometheus_text,
    trace_to_jsonl,
    tracer_from_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_DEPTH_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import render_report, sample_queue_depths, utilization
from repro.obs.spans import SPAN_CATEGORIES, Span, SpanTracker
from repro.simcore.trace import Tracer


class Observability:
    """The single handle instrumented components record through.

    ``enabled`` is the one flag every guard checks; when False the
    handle is inert and may be shared across federations
    (:data:`OBS_OFF`).  ``current_parent`` is a scratch slot the data
    manager sets *synchronously* around a ``network.send`` so the
    resulting message-delivery span parents under the producing task —
    the simulation is single-threaded and the set/reset brackets contain
    no yields, so the hand-off is deterministic.
    """

    __slots__ = ("enabled", "metrics", "spans", "trace", "current_parent")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.spans = SpanTracker()
        self.trace = Tracer()
        self.current_parent: int | None = None

    def reset(self) -> None:
        """Drop all recorded state (fresh run, same instruments wiring)."""
        self.metrics.clear()
        self.spans.clear()
        self.trace.clear()
        self.current_parent = None

    def __repr__(self) -> str:
        # address-free: OBS_OFF appears as a signature default in the
        # generated API reference, which must be byte-stable across runs
        return f"Observability(enabled={self.enabled})"


#: Shared inert handle for components constructed without observability.
#: Never record through it — every call site guards on ``enabled``.
OBS_OFF = Observability(enabled=False)

__all__ = [
    "Observability",
    "OBS_OFF",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_DEPTH_BUCKETS",
    "Span",
    "SpanTracker",
    "SPAN_CATEGORIES",
    "to_chrome_trace",
    "chrome_trace_json",
    "to_prometheus_text",
    "spans_to_jsonl",
    "trace_to_jsonl",
    "tracer_from_jsonl",
    "render_report",
    "sample_queue_depths",
    "utilization",
]
