"""Structured event tracing.

Every significant happening in the simulated VDCE (load report, echo
packet, schedule decision, channel setup, task start/finish, failure) is
recorded as a :class:`TraceRecord` in the ``trace`` log of an enabled
:class:`~repro.obs.Observability` handle; an unobserved run records
nothing.  The visualization services (paper section 2.3.2) and the
post-mortem archive read the trace.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    """Append-only trace with filtered queries."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def record(self, time: float, category: str, actor: str,
               **detail: Any) -> None:
        """Append one record."""
        self.records.append(TraceRecord(time=time, category=category,
                                        actor=actor, detail=detail))

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

    def clear(self) -> None:
        """Drop every record."""
        self.records.clear()
