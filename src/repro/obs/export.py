"""Exporters: Chrome trace_event JSON, Prometheus text, JSONL.

Three formats, three audiences:

* :func:`chrome_trace_json` — a Chrome ``trace_event`` timeline that
  loads directly in ``chrome://tracing`` / Perfetto.  Spans become
  complete ("X") events; pid/tid rows are sites and actors.
* :func:`to_prometheus_text` — the registry in the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / samples), the lingua
  franca for scraping and diffing metric dumps.
* :func:`spans_to_jsonl` / :func:`trace_to_jsonl` — one JSON object per
  line, for ad-hoc ``jq``-style analysis and for round-tripping a run
  back into a fresh :class:`~repro.simcore.trace.Tracer`
  (:func:`tracer_from_jsonl`) so the viz views can be fed offline.

Every exporter sorts its output and serialises with
``sort_keys=True`` + fixed separators, so a fixed-seed run exports
byte-identically — the chaos suite asserts exactly that.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import Span
from repro.simcore.trace import Tracer

_JSON_SEPARATORS = (",", ":")


def _dumps(obj: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace — byte-stable."""
    return json.dumps(obj, sort_keys=True, separators=_JSON_SEPARATORS)


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------

def to_chrome_trace(spans: Iterable[Span],
                    clock_end: float | None = None) -> dict[str, Any]:
    """Spans as a Chrome ``trace_event`` object (``traceEvents`` list).

    Mapping: each actor gets a tid (rows in the timeline), assigned in
    sorted-actor-name order so the layout is deterministic; all events
    share pid 1 (one simulated federation).  Finished spans become
    complete ("X") events with microsecond ``ts``/``dur``; open spans
    are extended to *clock_end* (or rendered zero-length) and tagged
    ``"open": true`` in args.  Span/parent ids ride along in ``args``
    so the causal tree survives the format.
    """
    span_list = list(spans)
    actors = sorted({s.actor for s in span_list})
    tids = {actor: i + 1 for i, actor in enumerate(actors)}

    events: list[dict[str, Any]] = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": "vdce"}},
    ]
    for actor in actors:
        events.append({"ph": "M", "pid": 1, "tid": tids[actor],
                       "name": "thread_name", "args": {"name": actor}})

    for span in span_list:
        args: dict[str, Any] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        for key in sorted(span.attrs):
            args[key] = span.attrs[key]
        if span.end_s is None:
            args["open"] = True
        dur_s = span.duration_s(clock_end)
        if dur_s < 0:
            dur_s = 0.0
        events.append({
            "ph": "X",
            "pid": 1,
            "tid": tids[span.actor],
            "name": span.name,
            "cat": span.category,
            "ts": round(span.start_s * 1e6, 3),
            "dur": round(dur_s * 1e6, 3),
            "args": args,
        })

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(spans: Iterable[Span],
                      clock_end: float | None = None) -> str:
    """:func:`to_chrome_trace` serialised canonically (byte-stable)."""
    return _dumps(to_chrome_trace(spans, clock_end=clock_end))


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _format_value(value: float) -> str:
    """Render counts as integers, everything else via repr (lossless)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)

def _label_str(pairs: Iterable[tuple[str, str]]) -> str:
    parts = [f'{k}="{v}"' for k, v in pairs]
    return "{" + ",".join(parts) + "}" if parts else ""


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format.

    Histograms expand to cumulative ``_bucket{le=...}`` samples plus
    ``_sum`` and ``_count``, exactly as a Prometheus client would
    expose them; counters/gauges are plain samples.  Metrics sort by
    name and series by label key, so the dump is byte-stable.
    """
    lines: list[str] = []
    for metric in registry.collect():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for key, series in metric.samples():
                cumulative = 0
                for bound, n in zip(metric.buckets, series.bucket_counts):
                    cumulative += n
                    labels = _label_str(list(key) + [("le", repr(bound))])
                    lines.append(
                        f"{metric.name}_bucket{labels} {cumulative}")
                cumulative += series.bucket_counts[-1]
                labels = _label_str(list(key) + [("le", "+Inf")])
                lines.append(f"{metric.name}_bucket{labels} {cumulative}")
                base = _label_str(key)
                lines.append(
                    f"{metric.name}_sum{base} {_format_value(series.sum)}")
                lines.append(f"{metric.name}_count{base} {series.count}")
        else:
            for key, value in metric.samples():
                lines.append(
                    f"{metric.name}{_label_str(key)} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One span per line (id order), canonical JSON."""
    return "".join(_dumps(span.to_dict()) + "\n" for span in spans)


def trace_to_jsonl(tracer: Tracer) -> str:
    """One flat TraceRecord per line, in record order."""
    out: list[str] = []
    for rec in tracer.records:
        out.append(_dumps({
            "time": rec.time,
            "category": rec.category,
            "actor": rec.actor,
            "detail": dict(rec.detail),
        }) + "\n")
    return "".join(out)


def tracer_from_jsonl(text: str) -> Tracer:
    """Rebuild a Tracer from :func:`trace_to_jsonl` output.

    The round-trip exists so exported traces can feed the viz views
    (WorkloadView etc.) offline, without re-running the simulation.
    """
    tracer = Tracer()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        tracer.record(obj["time"], obj["category"], obj["actor"],
                      **obj["detail"])
    return tracer
