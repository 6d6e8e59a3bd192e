"""The site repository: the four databases bundled per site.

Paper section 2: "Site repository, the web-based storage environment
within a VDCE site, consists of four different databases."  Every VDCE
site owns one :class:`SiteRepository`; the Site Manager is its sole
writer for dynamic data, and the Application Scheduler reads it through
the Site Manager (Figure 2).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.repository.delta import DeltaTracker
from repro.repository.resource_perf import ResourcePerformanceDB
from repro.repository.task_constraints import TaskConstraintsDB
from repro.repository.task_perf import TaskPerformanceDB
from repro.repository.user_accounts import UserAccountsDB


class SiteRepository:
    """User accounts + resource performance + task performance + constraints."""

    def __init__(self, site: str) -> None:
        self.site = site
        self.user_accounts = UserAccountsDB()
        self.resource_performance = ResourcePerformanceDB()
        self.task_performance = TaskPerformanceDB()
        self.task_constraints = TaskConstraintsDB()
        self.delta = DeltaTracker()
        self._wire_delta()

    def _wire_delta(self) -> None:
        """Subscribe the shared change journal to the mutable databases.

        Every incremental consumer (score views, targeted prediction
        invalidation) cursors on ``self.delta``; re-wired whenever a
        database instance is replaced (:meth:`load`).
        """
        self.user_accounts.subscribe(self.delta.record)
        self.resource_performance.subscribe(self.delta.record)
        self.task_performance.subscribe(self.delta.record)
        self.task_constraints.subscribe(self.delta.record)

    # -- logged mutations ------------------------------------------------
    def apply(self, kind: str, payload: dict[str, Any], t: float) -> bool:
        """Apply one logged mutation's effect; True when it changed this
        repository.

        The one definition of what a ``workload-update``, ``host-down``
        or ``host-up`` record, or the task-performance half of a
        ``task-completed`` record (stamped *t*), does to a repository:
        the Site Manager applies each mutation it logs through here, and
        a promotion each record the standbys hold, rolled forward over
        the site's snapshot.  Every other kind, and a record
        naming a host or task this repository does not hold, changes
        nothing.
        """
        rp = self.resource_performance
        tp = self.task_performance
        if kind == "workload-update" and payload["host"] in rp:
            rp.update_dynamic(
                payload["host"], cpu_load=payload["cpu_load"],
                available_memory_mb=payload["available_memory_mb"],
                time=payload["time"])
        elif kind == "host-down" and payload["host"] in rp:
            rp.mark_down(payload["host"], payload["time"])
        elif kind == "host-up" and payload["host"] in rp:
            rp.mark_up(payload["host"], payload["time"])
        elif kind == "task-completed" and payload["task_name"] in tp:
            tp.record_execution(
                payload["task_name"], payload["host"],
                input_size=payload["input_size"],
                elapsed_s=payload["elapsed_s"], time=t,
                dedicated_elapsed_s=payload.get("dedicated_elapsed_s"),
                base_time_at_size_s=payload.get("base_time_at_size_s"))
        else:
            return False
        return True

    # -- persistence -----------------------------------------------------
    _FILES = {
        "user_accounts": "user_accounts.json",
        "resource_performance": "resource_performance.json",
        "task_performance": "task_performance.json",
        "task_constraints": "task_constraints.json",
    }

    def save(self, directory: str | Path) -> None:
        """Persist all four databases under *directory*."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.user_accounts.save(directory / self._FILES["user_accounts"])
        self.resource_performance.save(
            directory / self._FILES["resource_performance"])
        self.task_performance.save(
            directory / self._FILES["task_performance"])
        self.task_constraints.save(
            directory / self._FILES["task_constraints"])

    @classmethod
    def load(cls, site: str, directory: str | Path) -> "SiteRepository":
        directory = Path(directory)
        repo = cls(site)
        repo.user_accounts = UserAccountsDB.load(
            directory / cls._FILES["user_accounts"])
        repo.resource_performance = ResourcePerformanceDB.load(
            directory / cls._FILES["resource_performance"])
        repo.task_performance = TaskPerformanceDB.load(
            directory / cls._FILES["task_performance"])
        repo.task_constraints = TaskConstraintsDB.load(
            directory / cls._FILES["task_constraints"])
        # the freshly-loaded DB instances replaced the subscribed ones:
        # start a new journal generation and re-subscribe
        repo.delta = DeltaTracker()
        repo._wire_delta()
        return repo
