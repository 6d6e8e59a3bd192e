"""The ``repro obs`` report: utilization, queue depths, latency percentiles.

This is the text-mode stand-in for the paper's Application Analyzer
views: given an :class:`~repro.obs.Observability` handle after a run, it
digests the span tree and the metrics registry into the three summaries
an operator actually asks for —

* **utilization** — per-actor busy fraction from the task-execution
  spans (how hard each host worked over the observed window);
* **queue depths** — last-sampled and distributional mailbox depths,
  fed by :func:`sample_queue_depths`;
* **schedule latency percentiles** — p50/p90/p99 over the
  schedule-round span durations, via :func:`repro.util.stats.percentile`
  (raw durations, not histogram buckets, so the percentiles are exact).

Everything iterates sorted, so the rendered report is byte-stable for a
fixed seed.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import DEFAULT_DEPTH_BUCKETS
from repro.obs.spans import SpanTracker
from repro.util.stats import mean, percentile

#: latency percentiles the report quotes
REPORT_PERCENTILES = (50.0, 90.0, 99.0)


def utilization(spans: SpanTracker,
                clock_end: float | None = None) -> dict[str, float]:
    """Per-actor busy fraction from task-execution spans.

    Busy time is the sum of task-execution durations per actor; the
    window is [earliest start, *clock_end* or latest end] across all
    task spans.  Overlapping tasks on one actor can push utilization
    above 1.0 — that is a finding (oversubscription), not an error.
    """
    tasks = spans.by_category("task-execution")
    if not tasks:
        return {}
    start = min(s.start_s for s in tasks)
    end = clock_end if clock_end is not None else max(
        s.end_s if s.end_s is not None else s.start_s for s in tasks)
    window = end - start
    busy: dict[str, float] = {}
    for span in tasks:
        busy[span.actor] = busy.get(span.actor, 0.0) + span.duration_s(end)
    if window <= 0:
        return {actor: 0.0 for actor in sorted(busy)}
    return {actor: busy[actor] / window for actor in sorted(busy)}


def schedule_latencies(spans: SpanTracker) -> list[float]:
    """Raw schedule-round durations, in span-id (i.e. causal) order."""
    return [s.duration_s() for s in spans.finished("schedule-round")]


def latency_percentiles(latencies: list[float]) -> dict[float, float]:
    """Exact :data:`REPORT_PERCENTILES` over raw latency samples."""
    if not latencies:
        return {}
    return {q: percentile(latencies, q) for q in REPORT_PERCENTILES}


def sample_queue_depths(obs: Any, vdce: Any) -> dict[str, int]:
    """Snapshot every network mailbox depth into the registry.

    Call this periodically (the ``repro obs`` CLI does, between
    ``run_until`` steps) to build the queue-depth picture.  Writes the
    ``queue_depth`` gauge (latest) and the ``queue_depth_dist``
    histogram (distribution over samples) per address.  *vdce* is
    duck-typed (anything with ``.world.network``) to keep ``repro.obs``
    import-independent of ``repro.core``.
    """
    network = vdce.world.network
    depths: dict[str, int] = {}
    for addr in sorted(network.addresses):
        depths[addr] = len(network.mailbox(addr).items)
    if obs.enabled:
        gauge = obs.metrics.gauge(
            "queue_depth", help="last-sampled mailbox depth per address")
        hist = obs.metrics.histogram(
            "queue_depth_dist", buckets=DEFAULT_DEPTH_BUCKETS,
            help="mailbox depth distribution over samples")
        for addr, depth in depths.items():
            gauge.set(depth, addr=addr)
            hist.observe(depth, addr=addr)
    return depths


def _fmt_pct(x: float) -> str:
    return f"{100.0 * x:6.1f}%"


def render_report(obs: Any, clock_end: float | None = None) -> str:
    """The full ``repro obs`` text report (byte-stable for a seed)."""
    lines: list[str] = ["== observability report =="]

    util = utilization(obs.spans, clock_end=clock_end)
    lines.append("")
    lines.append("-- utilization (task-execution busy fraction) --")
    if util:
        for actor in sorted(util):
            lines.append(f"  {actor:<28} {_fmt_pct(util[actor])}")
    else:
        lines.append("  (no task-execution spans)")

    lines.append("")
    lines.append("-- schedule latency (schedule-round spans) --")
    lats = schedule_latencies(obs.spans)
    if lats:
        pcts = latency_percentiles(lats)
        lines.append(f"  rounds={len(lats)}  mean={mean(lats):.6f}s")
        for q in REPORT_PERCENTILES:
            lines.append(f"  p{q:g} = {pcts[q]:.6f}s")
    else:
        lines.append("  (no schedule-round spans)")

    lines.append("")
    lines.append("-- queue depths (sampled) --")
    gauge = obs.metrics.get("queue_depth")
    hist = obs.metrics.get("queue_depth_dist")
    if gauge is not None and gauge.samples():
        for key, value in gauge.samples():
            addr = dict(key).get("addr", "?")
            series = hist.series(addr=addr) if hist is not None else None
            if series is not None:
                lines.append(
                    f"  {addr:<28} last={int(value):>3d}  "
                    f"max={int(series.max):>3d}  mean={series.mean:.2f}")
            else:
                lines.append(f"  {addr:<28} last={int(value):>3d}")
    else:
        lines.append("  (no queue samples; run with sampling enabled)")

    lines.append("")
    lines.append("-- robustness (retries / timeouts / failovers) --")
    any_robustness = False
    for name in ("retries_total", "delivery_timeouts_total",
                 "failovers_total"):
        metric = obs.metrics.get(name)
        if metric is None:
            continue
        total = sum(value for _, value in metric.samples())
        lines.append(f"  {name:<28} {int(total):>6d}")
        any_robustness = True
    if not any_robustness:
        lines.append("  (no retries, timeouts or failovers recorded)")

    lines.append("")
    lines.append("-- span inventory --")
    counts: dict[str, int] = {}
    for span in obs.spans.spans:
        counts[span.category] = counts.get(span.category, 0) + 1
    if counts:
        for cat in sorted(counts):
            lines.append(f"  {cat:<20} {counts[cat]:>6d}")
    else:
        lines.append("  (no spans recorded)")

    lines.append("")
    lines.append("-- metric inventory --")
    metrics = obs.metrics.collect()
    if metrics:
        for metric in metrics:
            n_series = len(metric.samples())
            lines.append(
                f"  {metric.name:<32} {metric.kind:<10} series={n_series}")
    else:
        lines.append("  (no metrics recorded)")

    return "\n".join(lines) + "\n"
