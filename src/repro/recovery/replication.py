"""Log shipping: the active server's side and the standby's side.

The :class:`ReplicationShipper` hangs off a live
:class:`~repro.runtime.control.site_manager.SiteManager` (as its
``replication`` attribute): every mutating operation calls
:meth:`ReplicationShipper.log`, which appends to the local
:class:`~repro.recovery.wal.WriteAheadLog` and ships the record to every
standby as a ``wal-append`` message over the ordinary simulated network.
A dead server ships nothing — its ``site/server`` source address drops
all traffic — which is exactly the failure semantics the standbys must
tolerate.

The :class:`StandbyReplica` daemon runs on a standby *host* (so it dies
with the host, like any other daemon).  It holds the records it was
shipped, keyed by LSN, and tracks the server heartbeat for the failure
detector in :mod:`repro.recovery.failover`; it applies nothing.  Only a
promotion reads the held log: :func:`roll_forward` gives the records
their repository effect, through :meth:`SiteRepository.apply`, the
server's own write path, on a copy of the site's snapshot, and
:meth:`~repro.runtime.control.site_manager.ExecutionState.fold` their
execution effect.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from repro.analysis import hooks
from repro.net import SERVER_HEARTBEAT, SERVER_PROMOTED, WAL_APPEND
from repro.net.network import Network
from repro.recovery.wal import WalRecord, WriteAheadLog
from repro.repository.site_repository import SiteRepository
from repro.resources.host import Host
from repro.simcore.engine import Environment


class ReplicationShipper:
    """Active-server side: append locally, ship to every standby."""

    def __init__(self, env: Environment, network: Network,
                 src_address: str, standby_addrs: list[str],
                 start_lsn: int = 0) -> None:
        self.env = env
        self.network = network
        self.src_address = src_address
        self.standby_addrs = sorted(standby_addrs)
        self.wal = WriteAheadLog(start_lsn=start_lsn)

    def log(self, kind: str, payload: dict[str, Any]) -> WalRecord:
        """Record one mutation and ship it to the standbys."""
        if hooks.HB is not None:
            hooks.HB.write(self.src_address.split("/", 1)[0], "wal", kind)
        record = self.wal.append(kind, payload, t=self.env.now)
        if self.standby_addrs:
            self.network.send_batch(
                self.src_address, self.standby_addrs, WAL_APPEND,
                payload={"lsn": record.lsn, "t": record.t,
                         "kind": record.kind, "data": record.payload},
                size_bytes=192)
        return record


class StandbyReplica:
    """Standby-host side: the shipped log, held for a promotion."""

    SERVICE = "standby"

    def __init__(self, env: Environment, network: Network,
                 host: Host) -> None:
        self.env = env
        self.host = host
        self.address = f"{host.address}/{self.SERVICE}"
        self.mailbox = network.register(self.address)
        #: shipped records by LSN (a dict, not a list: duplicates from
        #: message faults are held once, gaps stay visible)
        self.records: dict[int, WalRecord] = {}
        #: simulated time the last server heartbeat arrived
        self.last_heartbeat = env.now
        #: set False once this replica (or a peer) was promoted
        self.active = True
        self._inbox_proc = env.process(self._inbox_loop(),
                                       name=f"standby:{self.address}")

    # -- inbox ------------------------------------------------------------
    def _inbox_loop(self):
        while True:
            msg = yield self.mailbox.get()
            if msg.kind == WAL_APPEND:
                self._on_wal_append(msg.payload)
            elif msg.kind == SERVER_HEARTBEAT:
                self.last_heartbeat = self.env.now
            elif msg.kind == SERVER_PROMOTED:
                # a peer won the promotion; reset suspicion and follow
                # the new server's heartbeats
                self.last_heartbeat = self.env.now

    def _on_wal_append(self, payload: dict[str, Any]) -> None:
        self.absorb((WalRecord(lsn=payload["lsn"], t=payload["t"],
                               kind=payload["kind"],
                               payload=payload["data"]),))

    def absorb(self, records: Iterable[WalRecord]) -> int:
        """Hold shipped records or a promotion's state transfer, each at
        its LSN; returns how many were new.  A copy of a held LSN is the
        same record, since a promoted server continues the site's LSN
        sequence, so the held one is kept."""
        new = 0
        for record in records:
            if record.lsn not in self.records:
                self.records[record.lsn] = record
                new += 1
        return new

    # -- promotion-time views ------------------------------------------------
    def ordered_records(self) -> list[WalRecord]:
        """Every shipped record this replica holds, in LSN order."""
        return [self.records[lsn] for lsn in sorted(self.records)]

    def last_lsn(self) -> int:
        """Highest LSN held (0 when nothing arrived)."""
        return max(self.records, default=0)

    def stop(self) -> None:
        """Terminate the replica's inbox process (teardown/promotion)."""
        self.active = False
        if self._inbox_proc.is_alive:
            self._inbox_proc.interrupt("stop")


def roll_forward(repository: SiteRepository, records: Iterable[WalRecord],
                 host_address: str) -> SiteRepository:
    """Give *records* their repository effect, in the order given (LSN
    order), on *repository*, and return it.

    :meth:`SiteRepository.apply` applies each record, as at the live
    server; execution-kind records change nothing here (a promotion
    folds them).  A ``task-completed`` record's task-performance effect
    is applied once per ``(execution_id, node_id)``, so a completion
    that an earlier promotion re-logged is not counted twice.  Each
    record is one sanitizer write on the ``replica:<host>`` cell of the
    standby host at *host_address*.
    """
    cell = f"replica:{host_address}"
    applied: set[tuple[str, str]] = set()
    for record in records:
        if hooks.HB is not None:
            hooks.HB.write(repository.site, cell, record.kind)
        payload = record.payload
        if record.kind == "task-completed":
            key = (payload["execution_id"], payload["node_id"])
            if key in applied:
                continue
            applied.add(key)
        repository.apply(record.kind, payload, record.t)
    return repository
