"""FIFO stores: the mailbox primitive used by simulated daemons.

A :class:`Store` is an unbounded FIFO queue whose ``put`` never blocks
and whose ``get`` returns an event a process can wait on — the basic
building block for monitor→group-manager reports, site-manager request
queues, and the Data Manager's channel endpoints.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.simcore.engine import Environment, Event


class StoreGet(Event):
    """Pending retrieval from a :class:`Store`; once its reader is
    interrupted away it leaves the getter queue instead of swallowing
    the next item."""

    #: ``_hb_extra`` carries the sanitizer's buffered putter clock
    __slots__ = ("store", "_hb_extra")

    def _abandon(self) -> None:
        if self._ok is None:  # still queued: no item handed over yet
            self.store._getters.remove(self)


class Store:
    """An unbounded ordered FIFO queue of items with a waitable get.

    Invariant: no getter waits while items are buffered — ``put`` hands
    an item to the oldest waiting getter before it buffers anything, and
    ``get`` takes a buffered item before it queues a getter.
    """

    __slots__ = ("env", "items", "_getters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: deque[Any] = deque()
        self._getters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Insert *item*: hand it to the oldest waiting getter, or
        buffer it.  Never blocks and builds no event of its own."""
        if self._getters:
            # Direct handoff: the putter's context triggers the getter's
            # event, so the happens-before edge rides the trigger clock.
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)
            hb = self.env._hb
            if hb is not None:
                hb.store_append(self)

    def get(self) -> StoreGet:
        """Return an event that triggers with the oldest item."""
        ev = StoreGet(self.env)
        ev.store = self
        if self.items:
            item = self.items.popleft()
            hb = self.env._hb
            if hb is not None:
                hb.store_handoff(self, ev)
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Any | None:
        """Non-blocking get: the oldest item or ``None`` when empty."""
        if self.items:
            item = self.items.popleft()
            hb = self.env._hb
            if hb is not None:
                hb.store_taken(self)
            return item
        return None
