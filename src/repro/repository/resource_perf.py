"""The resource-performance database.

Paper section 2: attributes are "grouped into two parts: a) static
attributes stored in the database once during the initial configuration
of VDCE such as: host name, IP address, architecture type, OS type, and
total memory size; and b) dynamic attributes that are updated
periodically, such as recent load measurement and available memory size."

The scheduler reads *this* view — which lags ground truth by the
monitoring pipeline's reporting period and significant-change filter.
That staleness is a first-class quantity in experiment F6.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.repository.delta import DeltaCallback
from repro.repository.store import Table, record_from_row
from repro.resources.host import HostSpec
from repro.util.errors import NotRegisteredError, RepositoryError

#: Window length for "a window of most recent workload measurements"
#: (paper section 2.2.1) retained per host for forecasting.
DEFAULT_WINDOW = 16


@dataclass
class ResourceRecord:
    """One host's repository view: static spec + dynamic measurements."""

    # static attributes
    host_name: str
    site: str
    ip: str
    arch: str
    os: str
    cpu_factor: float
    total_memory_mb: float
    group: str
    # dynamic attributes
    cpu_load: float = 0.0
    available_memory_mb: float = 0.0
    status: str = "up"  # "up" | "down"
    last_update: float = 0.0
    load_window: list[float] = field(default_factory=list)
    load_window_times: list[float] = field(default_factory=list)

    @property
    def address(self) -> str:
        return f"{self.site}/{self.host_name}"


class ResourcePerformanceDB:
    """Repository table of :class:`ResourceRecord` keyed by host address."""

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._table = Table("resource-performance")
        self._records: dict[str, ResourceRecord] = {}
        self.window = window
        self._subscribers: list[DeltaCallback] = []

    def subscribe(self, callback: DeltaCallback) -> None:
        """Register a delta callback ``cb(kind, a, b)`` (INV002 sink).

        Callbacks run synchronously in subscription order on every
        mutation — the :class:`~repro.repository.delta.DeltaTracker`
        journal therefore sees events in exactly mutation order.
        """
        self._subscribers.append(callback)

    def _notify(self, kind: str, a: str = "", b: str = "") -> None:
        for cb in self._subscribers:
            cb(kind, a, b)

    # -- registration ----------------------------------------------------
    def register_host(self, site: str, spec: HostSpec) -> ResourceRecord:
        """Store a host's static attributes (initial configuration)."""
        rec = ResourceRecord(
            host_name=spec.name, site=site, ip=spec.ip, arch=spec.arch,
            os=spec.os, cpu_factor=spec.cpu_factor,
            total_memory_mb=spec.memory_mb, group=spec.group,
            available_memory_mb=spec.memory_mb,
        )
        self._notify("host", rec.address)
        self._records[rec.address] = rec
        return rec

    def unregister_host(self, address: str) -> None:
        """Drop a host removed from the VDCE."""
        if address not in self._records:
            raise NotRegisteredError(f"no resource record for {address!r}")
        del self._records[address]
        self._notify("host-removed", address)

    # -- dynamic updates (driven by the Site Manager) ----------------------
    def update_dynamic(self, address: str, cpu_load: float,
                       available_memory_mb: float, time: float) -> None:
        """Apply one monitoring update (load + memory + window)."""
        rec = self.get(address)
        rec.cpu_load = cpu_load
        rec.available_memory_mb = available_memory_mb
        rec.last_update = time
        rec.load_window.append(cpu_load)
        rec.load_window_times.append(time)
        if len(rec.load_window) > self.window:
            del rec.load_window[0]
            del rec.load_window_times[0]
        self._notify("host", address)

    def mark_down(self, address: str, time: float) -> None:
        """Record a detected host failure (scheduling excludes it)."""
        rec = self.get(address)
        rec.status = "down"
        rec.last_update = time
        self._notify("host", address)

    def mark_up(self, address: str, time: float) -> None:
        """Record a detected host recovery."""
        rec = self.get(address)
        rec.status = "up"
        rec.last_update = time
        self._notify("host", address)

    # -- queries -----------------------------------------------------------
    def get(self, address: str) -> ResourceRecord:
        """Fetch one host's record by ``site/host`` address."""
        try:
            return self._records[address]
        except KeyError:
            raise NotRegisteredError(
                f"no resource record for {address!r}") from None

    def __contains__(self, address: str) -> bool:
        return address in self._records

    def __len__(self) -> int:
        return len(self._records)

    def hosts_at(self, site: str) -> list[ResourceRecord]:
        """The up hosts registered for *site* (:meth:`all_records` also
        lists the down ones)."""
        return [r for r in self._records.values()
                if r.site == site and r.status == "up"]

    def all_records(self) -> list[ResourceRecord]:
        """Every registered host's record (up and down)."""
        return list(self._records.values())

    # -- persistence ---------------------------------------------------------
    def save(self, path: str | Path) -> None:
        for addr, rec in self._records.items():
            self._table.put(addr, asdict(rec))
        self._table.save(path)

    @classmethod
    def load(cls, path: str | Path) -> "ResourcePerformanceDB":
        db = cls()
        db._table = Table.load(path)
        for key, row in db._table.items():
            rec = record_from_row(ResourceRecord, row, path, key)
            if rec.address != key:
                raise RepositoryError(
                    f"{path}: row {key!r} has site/host_name "
                    f"{rec.address!r}, not its key")
            db._records[key] = rec
        return db
