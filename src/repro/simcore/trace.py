"""Structured event tracing.

Every significant happening in the simulated VDCE (load report, echo
packet, schedule decision, channel setup, task start/finish, failure) is
recorded as a :class:`TraceRecord` in the ``trace`` log of an enabled
:class:`~repro.obs.Observability` handle; an unobserved run records
nothing.  The visualization services (paper section 2.3.2) and the
post-mortem archive read the trace.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped happening."""

    time: float
    category: str
    actor: str
    detail: dict[str, Any] = field(default_factory=dict)

    def matches(self, category: str | None = None,
                actor: str | None = None) -> bool:
        """True when the record matches the given filters."""
        if category is not None and self.category != category:
            return False
        if actor is not None and self.actor != actor:
            return False
        return True


class Tracer:
    """Append-only trace with filtered queries and live subscribers."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []
        self._subscribers: list[Callable[[TraceRecord], None]] = []

    def record(self, time: float, category: str, actor: str,
               **detail: Any) -> None:
        """Append a record and hand it to every subscriber."""
        rec = TraceRecord(time=time, category=category, actor=actor,
                          detail=detail)
        self.records.append(rec)
        for sub in self._subscribers:
            sub(rec)

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Register a live callback invoked on every new record."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Remove a previously subscribed callback (no-op if absent).

        Without this, consumers sharing one tracer across runs (e.g. a
        view re-attached per run) accumulate subscribers forever — every
        record fans out to every stale callback of every earlier run.
        """
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    @property
    def subscriber_count(self) -> int:
        """Number of live subscribers (leak probe for reused tracers)."""
        return len(self._subscribers)

    def query(self, category: str | None = None,
              actor: str | None = None,
              since: float = float("-inf"),
              until: float = float("inf")) -> Iterator[TraceRecord]:
        """Iterate records filtered by category/actor/time window."""
        for rec in self.records:
            if since <= rec.time <= until and rec.matches(category, actor):
                yield rec

    def count(self, category: str | None = None,
              actor: str | None = None) -> int:
        """Number of records matching the filters."""
        return sum(1 for _ in self.query(category, actor))

    def categories(self) -> dict[str, int]:
        """Histogram of record counts per category."""
        out: dict[str, int] = {}
        for rec in self.records:
            out[rec.category] = out.get(rec.category, 0) + 1
        return out

    def clear(self, subscribers: bool = False) -> None:
        """Drop every record; with ``subscribers=True`` also drop those.

        ``clear(subscribers=True)`` is the full reset for a tracer shared
        across runs: records and the subscriber list both go, so a new
        run starts with no stale fan-out targets.
        """
        self.records.clear()
        if subscribers:
            self._subscribers.clear()
