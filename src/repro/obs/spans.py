"""Causal spans: a run reconstructed as a tree.

The flat :class:`~repro.simcore.trace.Tracer` answers "what happened
when"; spans answer "what caused what".  Every span has a monotonically
assigned id and an optional parent id, giving the canonical hierarchy

    application  >  schedule-round
                 >  task-execution  >  message-delivery

so one submission can be replayed as a tree (the Gantt rows of the
Application Performance view are exactly the task-execution layer).

Determinism: span ids come from a per-tracker counter (never ``id()``),
cross-component parent lookups go through explicit ``bind`` keys, and
:meth:`SpanTracker.finished`/:meth:`SpanTracker.tree` iterate in id
order — byte-identical exports for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: the canonical span hierarchy, outermost first; "failover" spans sit
#: outside the application tree (they time a control-plane promotion,
#: suspicion -> promoted, see repro.recovery)
SPAN_CATEGORIES = ("application", "schedule-round", "task-execution",
                   "message-delivery", "failover", "membership")

_CATEGORY_SET = frozenset(SPAN_CATEGORIES)


@dataclass
class Span:
    """One timed, causally linked interval of simulated time."""

    span_id: int
    parent_id: int | None
    name: str
    category: str
    actor: str
    start_s: float
    end_s: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    def duration_s(self, clock_end: float | None = None) -> float:
        """Span duration; open spans run to *clock_end* (or zero)."""
        end = self.end_s if self.end_s is not None else clock_end
        if end is None:
            return 0.0
        return end - self.start_s

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict (stable field set, no object identities)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "actor": self.actor,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": dict(self.attrs),
        }


class SpanTracker:
    """Create, finish and cross-reference spans for one observed run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._by_id: dict[int, Span] = {}
        self._bindings: dict[tuple[Any, ...], int] = {}
        self._next_id = 1

    # -- lifecycle ---------------------------------------------------------
    def begin(self, name: str, category: str, actor: str, start_s: float,
              parent_id: int | None = None, **attrs: Any) -> int:
        """Open a span; returns its id (pass to :meth:`end`)."""
        if category not in _CATEGORY_SET:
            raise ValueError(f"unknown span category {category!r}; "
                             f"expected one of {SPAN_CATEGORIES}")
        if parent_id is not None and parent_id not in self._by_id:
            raise KeyError(f"parent span {parent_id} does not exist")
        span = Span(span_id=self._next_id, parent_id=parent_id, name=name,
                    category=category, actor=actor, start_s=start_s,
                    attrs=dict(attrs))
        self._next_id += 1
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span.span_id

    def end(self, span_id: int, end_s: float, **attrs: Any) -> Span:
        """Close an open span, merging *attrs* into it."""
        span = self._by_id[span_id]
        if span.end_s is not None:
            raise ValueError(f"span {span_id} ({span.name!r}) already ended")
        if end_s < span.start_s:
            raise ValueError(
                f"span {span_id} would end before it started "
                f"({end_s} < {span.start_s})")
        span.end_s = end_s
        span.attrs.update(attrs)
        return span

    def complete(self, name: str, category: str, actor: str, start_s: float,
                 end_s: float, parent_id: int | None = None,
                 **attrs: Any) -> int:
        """Record an already-finished span in one call.

        The message-delivery layer uses this: the simulation knows a
        message's arrival time at send time, so the whole span exists
        the moment the send happens.
        """
        span_id = self.begin(name, category, actor, start_s,
                             parent_id=parent_id, **attrs)
        self.end(span_id, end_s)
        return span_id

    # -- cross-component parent plumbing -----------------------------------
    def bind(self, key: tuple[Any, ...], span_id: int) -> None:
        """Register *span_id* under a shared key (e.g. ``("app", exec_id)``).

        Components that cannot see each other's span ids agree on keys
        instead: the facade binds the application span under the
        execution id, the Application Controller binds each task span
        under ``("task", exec_id, node_id)``, and downstream layers
        :meth:`lookup` their parent.  Re-binding a key overwrites it
        (a rescheduled task's new span becomes the parent of its
        deliveries).
        """
        self._bindings[key] = span_id

    def lookup(self, key: tuple[Any, ...]) -> int | None:
        """The span id bound under *key*, or None."""
        return self._bindings.get(key)

    def get(self, span_id: int) -> Span:
        """Fetch a span by id."""
        return self._by_id[span_id]

    # -- queries ------------------------------------------------------------
    def finished(self, category: str | None = None) -> list[Span]:
        """Finished spans in id order, optionally filtered by category."""
        return [s for s in self.spans if s.end_s is not None
                and (category is None or s.category == category)]

    def open_spans(self) -> list[Span]:
        """Spans begun but never ended (e.g. a timed-out application)."""
        return [s for s in self.spans if s.end_s is None]

    def by_category(self, category: str) -> list[Span]:
        """Every span of one category, in id order."""
        return [s for s in self.spans if s.category == category]

    def children(self, span_id: int | None) -> list[Span]:
        """Direct children of a span (or the roots, for ``None``)."""
        return [s for s in self.spans if s.parent_id == span_id]

    def tree(self) -> dict[int | None, list[int]]:
        """parent id (None for roots) -> child span ids, in id order."""
        out: dict[int | None, list[int]] = {}
        for span in self.spans:
            out.setdefault(span.parent_id, []).append(span.span_id)
        return out

    def __len__(self) -> int:
        return len(self.spans)

    def clear(self) -> None:
        """Drop every span and binding (a fresh run)."""
        self.spans.clear()
        self._by_id.clear()
        self._bindings.clear()
        self._next_id = 1
