"""The repository change journal powering incremental scheduling.

This journal is the repository's one change-tracking mechanism: it
tells a consumer *which* (host, task-class) pairs a change dirties, so
a scheduling round need not re-walk the full candidate set.  The four
mutable databases of a
:class:`~repro.repository.site_repository.SiteRepository` publish every
mutation (through their ``subscribe``/``_notify`` hooks — the INV002
lint contract), and the :class:`DeltaTracker` accumulates them as an
ordered journal of :class:`DeltaEvent` tuples.  Incremental consumers
(the :class:`~repro.scheduling.host_selection.HostSelector` score views,
the federation directory catch-up) keep a cursor into the journal and
re-score only what the events since their cursor dirty.

Determinism: the journal is an ordered list — events replay in exactly
the order the mutations happened, never in set/dict-hash order (the
DET001 lesson).  The journal is bounded: past :data:`MAX_JOURNAL`
events the oldest half is compacted away and any consumer whose cursor
predates the surviving window receives ``None`` from
:meth:`DeltaTracker.events_since` and must rebuild from the full
repository state (which is always authoritative).
"""

from __future__ import annotations

from typing import Callable

#: One published mutation: ``(kind, a, b)``.
#:
#: ========== ============================ =======================
#: kind       a                            b
#: ========== ============================ =======================
#: host         host address                 (unused)
#: host-removed host address                 (unused)
#: weight       task name                    host address
#: task         task name                    (unused)
#: constraint   task name                    host address
#: user         user name                    tenant name
#: user-removed user name                    (unused)
#: tenant       tenant name                  (unused)
#: tenant-removed tenant name                (unused)
#: ========== ============================ =======================
DeltaEvent = tuple[str, str, str]

#: Journal bound: compaction halves the journal past this, trading a
#: full rebuild for laggard consumers against unbounded memory growth.
MAX_JOURNAL = 4096


class DeltaTracker:
    """Ordered, bounded journal of repository mutations.

    One tracker per :class:`SiteRepository`; the repository subscribes
    it to its databases at construction, so ``repo.delta.record`` is the
    single sink every ``_notify`` feeds.  ``generation`` is the monotone
    stamp consumers cursor on — it is bumped on **every** recorded
    event (the INV002 tracker contract: a journal mutation without a
    generation bump would let a cursor silently miss events).
    """

    __slots__ = ("generation", "_base", "_events", "max_journal")

    def __init__(self, max_journal: int = MAX_JOURNAL) -> None:
        #: total events ever recorded == the cursor of a fully-caught-up
        #: consumer; always ``_base + len(_events)``.
        self.generation = 0
        self._base = 0
        self._events: list[DeltaEvent] = []
        self.max_journal = max_journal

    def record(self, kind: str, a: str = "", b: str = "") -> None:
        """Append one mutation event (the ``_notify`` callback target)."""
        self._events.append((kind, a, b))
        self.generation += 1
        if len(self._events) > self.max_journal:
            drop = len(self._events) // 2
            del self._events[:drop]
            self._base += drop

    def events_since(self, cursor: int) -> list[DeltaEvent] | None:
        """Events recorded after *cursor*, oldest first.

        Returns ``None`` when compaction has discarded part of that
        range — the consumer's view is unreconstructable from deltas and
        must be rebuilt from the repository's current state.
        """
        if cursor < self._base:
            return None
        if cursor >= self.generation:
            return _NO_EVENTS
        return self._events[cursor - self._base:]

    def __len__(self) -> int:
        return len(self._events)


#: Shared empty slice for the caught-up case (no per-query allocation).
_NO_EVENTS: list[DeltaEvent] = []

#: The callback signature databases accept in ``subscribe``.
DeltaCallback = Callable[[str, str, str], None]
