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
with the host, like any other daemon).  It applies repository-kind
records eagerly to its own :class:`SiteRepository` copy (seeded from a
snapshot when failover was enabled) through
:meth:`SiteRepository.apply`, the server's own write path, holds
execution-kind records until a promotion folds them through
:meth:`~repro.runtime.control.site_manager.ExecutionState.fold`, and
tracks the server heartbeat for the failure detector in
:mod:`repro.recovery.failover`.
"""

from __future__ import annotations

import copy
from collections.abc import Iterable
from typing import Any

from repro.analysis import hooks
from repro.net import SERVER_HEARTBEAT, SERVER_PROMOTED, WAL_APPEND
from repro.net.network import Network
from repro.recovery.wal import WalRecord, WriteAheadLog
from repro.repository.site_repository import SiteRepository
from repro.resources.host import Host
from repro.resources.site import Site
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
    """Standby-host side: replica repository + held log records."""

    SERVICE = "standby"

    def __init__(self, env: Environment, network: Network, host: Host,
                 site: Site, repository: SiteRepository) -> None:
        self.env = env
        self.host = host
        self.site = site
        #: this standby's own repository copy (snapshot at enable time,
        #: then rolled forward by the held records in LSN order)
        self.repository = repository
        self.address = f"{host.address}/{self.SERVICE}"
        self.mailbox = network.register(self.address)
        #: shipped records by LSN (a dict, not a list: duplicates from
        #: message faults overwrite idempotently, gaps stay visible)
        self.records: dict[int, WalRecord] = {}
        #: highest LSN held (0 when nothing arrived)
        self._last_lsn = 0
        #: (execution_id, node_id) pairs whose task-performance effect
        #: was already applied — replays and duplicates are skipped
        self._perf_applied: set[tuple[str, str]] = set()
        #: (repository, applied pairs, LSN) when the first gap in the
        #: held LSNs opened: a record filling a gap is folded in from here
        self._checkpoint: tuple[SiteRepository, set, int] | None = None
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
        """Install shipped records or a promotion's state transfer: hold
        each at its LSN and apply the new ones; returns how many were
        new.  A copy of a held LSN is the same record, since a promoted
        server continues the site's LSN sequence.  A record filling a
        gap would reorder load windows and host status if applied after
        its successors, so the records after the checkpoint are folded
        again, in LSN order."""
        new = 0
        gap_filled = False
        for record in records:
            if record.lsn not in self.records:
                new += 1
                if record.lsn < self._last_lsn:
                    gap_filled = True
                elif not gap_filled:
                    if record.lsn > self._last_lsn + 1 and \
                            self._checkpoint is None:
                        self._checkpoint = (copy.deepcopy(self.repository),
                                            set(self._perf_applied),
                                            self._last_lsn)
                    self.apply_record(record)
                    self._last_lsn = record.lsn
            self.records[record.lsn] = record
        if gap_filled:
            # the checkpoint was taken when the filled gap opened
            repository, perf_applied, checkpoint_lsn = self._checkpoint
            self.repository = copy.deepcopy(repository)
            self._perf_applied = set(perf_applied)
            for record in self.ordered_records():
                if record.lsn > checkpoint_lsn:
                    self.apply_record(record)
            self._last_lsn = max(self.records)
        return new

    # -- eager application --------------------------------------------------
    def apply_record(self, record: WalRecord) -> None:
        """Roll the replica repository forward by one record.

        :meth:`SiteRepository.apply` gives each record its repository
        effect, as at the live server; the execution-state records are
        only held (a promotion folds them).  A ``task-completed``
        record's task-performance effect is applied once per
        ``(execution_id, node_id)``, so a re-logged completion after a
        promotion is not counted twice.
        """
        if hooks.HB is not None:
            hooks.HB.write(self.site.name, f"replica:{self.host.address}",
                           record.kind)
        payload = record.payload
        if record.kind != "task-completed":
            self.repository.apply(record.kind, payload, record.t)
            return
        key = (payload["execution_id"], payload["node_id"])
        if key not in self._perf_applied and \
                self.repository.apply(record.kind, payload, record.t):
            self._perf_applied.add(key)

    # -- promotion-time views ------------------------------------------------
    def ordered_records(self) -> list[WalRecord]:
        """Every shipped record this replica holds, in LSN order."""
        return [self.records[lsn] for lsn in sorted(self.records)]

    def last_lsn(self) -> int:
        """Highest LSN seen (0 when nothing arrived)."""
        return self._last_lsn

    def stop(self) -> None:
        """Terminate the replica's inbox process (teardown/promotion)."""
        self.active = False
        if self._inbox_proc.is_alive:
            self._inbox_proc.interrupt("stop")
