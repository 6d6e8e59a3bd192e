"""The deterministic write-ahead log behind site-server replication.

Every mutating :class:`~repro.repository.site_repository.SiteRepository`
or :class:`~repro.runtime.control.site_manager.ExecutionState` operation
at the active server appends one :class:`WalRecord` here *before* the
effect is considered durable; the shipper in
:mod:`repro.recovery.replication` forwards each record over the
simulated network to the site's standby hosts, which only hold it.  On
promotion the standby's copy of the log is read twice: rolled forward
over the site's repository snapshot, and folded to reconstruct the
server's execution state (see ``docs/recovery.md`` for the record
catalogue).

Determinism: records are appended in simulation order with a per-log
monotone LSN, and :meth:`WriteAheadLog.summary_json` renders a canonical
JSON digest (LSN, time, kind, and the stable key fields) that is
byte-identical across same-seed runs — payloads themselves may hold
non-JSON values (numpy arrays in completion reports) and are kept
in-memory for replay only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.util.errors import ConfigurationError

#: the record catalogue; at promotion, repository records are rolled
#: forward over the site's repository snapshot and execution records
#: are folded ("task-completed" does both: its task-performance effect
#: is rolled forward and its execution-state effect is folded)
REPOSITORY_KINDS = ("workload-update", "host-down", "host-up")
EXECUTION_KINDS = ("exec-begin", "ack", "start", "task-completed",
                   "exec-finished")
WAL_KINDS = REPOSITORY_KINDS + EXECUTION_KINDS

#: payload fields quoted in the canonical summary (when present)
_SUMMARY_FIELDS = ("execution_id", "host", "node_id")


@dataclass(frozen=True)
class WalRecord:
    """One logged mutation: LSN-ordered, timestamped, typed."""

    lsn: int
    t: float
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> dict[str, Any]:
        """The JSON-safe digest row used by :meth:`WriteAheadLog.summary_json`."""
        row: dict[str, Any] = {"lsn": self.lsn, "t": self.t,
                               "kind": self.kind}
        for name in _SUMMARY_FIELDS:
            if name in self.payload:
                row[name] = self.payload[name]
        return row


class WriteAheadLog:
    """An append-only, LSN-ordered record sequence."""

    def __init__(self, start_lsn: int = 0) -> None:
        if start_lsn < 0:
            raise ConfigurationError(
                f"start_lsn must be >= 0, got {start_lsn}")
        self._next_lsn = start_lsn + 1
        self.records: list[WalRecord] = []

    def append(self, kind: str, payload: dict[str, Any],
               t: float) -> WalRecord:
        """Append one mutation; returns the stamped record."""
        if kind not in WAL_KINDS:
            raise ConfigurationError(
                f"unknown WAL record kind {kind!r}; expected one of "
                f"{sorted(WAL_KINDS)}")
        record = WalRecord(lsn=self._next_lsn, t=t, kind=kind,
                           payload=payload)
        self._next_lsn += 1
        self.records.append(record)
        return record

    @property
    def last_lsn(self) -> int:
        """LSN of the newest record (start_lsn when empty)."""
        return self._next_lsn - 1

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def summary_rows(self) -> list[dict[str, Any]]:
        """Digest rows (LSN/time/kind + stable keys), in LSN order."""
        return [record.summary() for record in self.records]

    def summary_json(self) -> str:
        """Canonical JSON digest; byte-identical for a fixed seed."""
        return json.dumps(self.summary_rows(), sort_keys=True,
                          separators=(",", ":"))

