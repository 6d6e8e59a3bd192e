"""The task-constraints database.

Paper section 2: "In order to find locations of a task's executables,
VDCE stores location information of each task (i.e., the absolute path of
the task executable) for each host in the task-constraints database.  Due
to specific library requirements, some task executables may reside only
on some of the hosts."

The Host Selection Algorithm filters its candidate set through this
database: a host without the task's executable is infeasible regardless
of its predicted performance.
"""

from __future__ import annotations

from pathlib import Path

from repro.repository.delta import DeltaCallback
from repro.repository.store import Table, composite_key
from repro.util.errors import NotRegisteredError, RepositoryError


class TaskConstraintsDB:
    """Maps (task, host-address) to the executable's absolute path.

    Constraint edits gate *feasibility* rather than Predict values, but
    the incremental scheduling layer still needs every mutation
    published (INV002) to keep its candidate views honest when
    executables appear on or vanish from hosts.
    """

    def __init__(self) -> None:
        self._table = Table("task-constraints")
        self._hosts_by_task: dict[str, set[str]] = {}
        self._subscribers: list[DeltaCallback] = []

    def subscribe(self, callback: DeltaCallback) -> None:
        """Register a delta callback ``cb(kind, a, b)`` (INV002 sink)."""
        self._subscribers.append(callback)

    def _notify(self, kind: str, a: str = "", b: str = "") -> None:
        for cb in self._subscribers:
            cb(kind, a, b)

    def register_executable(self, task_name: str, host: str,
                            path: str) -> None:
        """Record that *host* has an executable for *task* at *path*."""
        self._table.put(composite_key(task_name, host), path)
        self._hosts_by_task.setdefault(task_name, set()).add(host)
        self._notify("constraint", task_name, host)

    def unregister_executable(self, task_name: str, host: str) -> None:
        self._table.delete(composite_key(task_name, host))
        self._hosts_by_task[task_name].discard(host)
        self._notify("constraint", task_name, host)

    def executable_path(self, task_name: str, host: str) -> str:
        """Absolute path of a task's executable on one host."""
        try:
            return str(self._table.get(composite_key(task_name, host)))
        except NotRegisteredError:
            raise NotRegisteredError(
                f"task {task_name!r} has no executable on host {host!r}"
            ) from None

    def is_runnable_on(self, task_name: str, host: str) -> bool:
        """True when the host holds an executable for the task."""
        return composite_key(task_name, host) in self._table

    def hosts_with(self, task_name: str) -> set[str]:
        """Every host that holds an executable for *task_name*."""
        return set(self._hosts_by_task.get(task_name, set()))

    def tasks_on(self, host: str) -> set[str]:
        """Every task installed on one host."""
        return {task for task, hosts in self._hosts_by_task.items()
                if host in hosts}

    # -- persistence -----------------------------------------------------
    def save(self, path: str | Path) -> None:
        self._table.save(path)

    @classmethod
    def load(cls, path: str | Path) -> "TaskConstraintsDB":
        db = cls()
        db._table = Table.load(path)
        for key in db._table.keys():
            task, sep, host = key.partition("|")
            if not sep:
                raise RepositoryError(
                    f"{path}: row {key!r} is not keyed 'task|host'")
            db._hosts_by_task.setdefault(task, set()).add(host)
        return db
