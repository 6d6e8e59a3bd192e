"""FIFO stores: the mailbox primitive used by simulated daemons.

A :class:`Store` is an unbounded (or capacity-bounded) FIFO queue whose
``get`` returns an event a process can wait on — the basic building block
for monitor→group-manager reports, site-manager request queues, and the
Data Manager's channel endpoints.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.simcore.engine import Environment, Event
from repro.util.errors import SimulationError


class StoreGet(Event):
    """Pending retrieval from a :class:`Store`; once its reader is
    interrupted away it leaves the getter queue instead of swallowing
    the next item."""

    #: ``_hb_extra`` carries the sanitizer's buffered putter clock
    __slots__ = ("store", "_hb_extra")

    def _abandon(self) -> None:
        if self._ok is None:  # still queued: no item handed over yet
            self.store._getters.remove(self)


class StorePut(Event):
    """Pending insertion into a capacity-bounded :class:`Store`."""

    #: ``_hb_clock`` carries the sanitizer's snapshot of the putter
    __slots__ = ("item", "_hb_clock")

    def __init__(self, env: Environment, item: Any) -> None:
        super().__init__(env)
        self.item = item


class Store:
    """An ordered FIFO queue of items with waitable get/put.

    ``capacity`` of ``None`` means unbounded (puts always succeed
    immediately); otherwise puts block while the store is full.
    """

    __slots__ = ("env", "capacity", "items", "_getters", "_putters")

    def __init__(self, env: Environment, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError("store capacity must be >= 1 or None")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[StoreGet] = deque()
        self._putters: deque[StorePut] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert *item*; returns an event that triggers once stored."""
        ev = StorePut(self.env, item)
        hb = self.env._hb
        if hb is not None:
            hb.store_put(ev)
        self._putters.append(ev)
        self._dispatch()
        return ev

    def put_nowait(self, item: Any) -> None:
        """Insert *item* without building a :class:`StorePut` event.

        The mailbox fast path for unbounded stores: a put into an
        unbounded store always succeeds immediately, so the pending-put
        event ``put`` allocates (and the no-op trigger it schedules) is
        pure overhead when the caller does not wait on it.  Hands the
        item straight to the oldest waiting getter when one exists —
        the same outcome ``_dispatch`` would produce, minus the
        intermediate buffer hop.  Falls back to :meth:`put` on bounded
        stores (where blocking semantics matter).
        """
        if self.capacity is not None:
            self.put(item)
            return
        if self._getters and not self.items:
            # Direct handoff: the putter's context triggers the getter's
            # event, so the happens-before edge rides the trigger clock.
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)
            hb = self.env._hb
            if hb is not None:
                hb.store_append(self)

    def get(self) -> StoreGet:
        """Return an event that triggers with the oldest item.

        With an item buffered and no putter waiting, the item goes
        straight to the new getter — what ``_dispatch`` would do, since
        no getter waits while items are buffered — without a trip
        through the getter queue.
        """
        ev = StoreGet(self.env)
        ev.store = self
        if self.items and not self._putters:
            item = self.items.popleft()
            hb = self.env._hb
            if hb is not None:
                hb.store_handoff(self, ev)
            ev.succeed(item)
            return ev
        self._getters.append(ev)
        self._dispatch()
        return ev

    def try_get(self) -> Any | None:
        """Non-blocking get: the oldest item or ``None`` when empty."""
        if self.items:
            item = self.items.popleft()
            hb = self.env._hb
            if hb is not None:
                hb.store_taken(self)
            self._dispatch()
            return item
        return None

    def _dispatch(self) -> None:
        hb = self.env._hb
        progressed = True
        while progressed:
            progressed = False
            # Move waiting puts into the buffer while there is room.
            while self._putters and (
                self.capacity is None or len(self.items) < self.capacity
            ):
                put = self._putters.popleft()
                self.items.append(put.item)
                if hb is not None:
                    hb.store_buffered(self, put)
                put.succeed()
                progressed = True
            # Satisfy waiting gets from the buffer.
            while self._getters and self.items:
                get = self._getters.popleft()
                item = self.items.popleft()
                if hb is not None:
                    hb.store_handoff(self, get)
                get.succeed(item)
                progressed = True
