"""The task-performance database.

Paper section 2: "The task-performance database provides performance
characteristics for each task in the system, and is used to predict the
performance of the task on a given resource.  Each task implementation is
specified by several parameters such as computation size, communication
size, required memory size, etc."

It also stores the two measured quantities the prediction function needs
(section 2.2.1):

* ``MeasuredTime(task, R_base)`` — execution time on a dedicated *base
  processor* for unit-size input, obtained by a trial run;
* ``Weight(task, R)`` — the per-task computing-power weight of host R
  relative to the base processor (citing Yan & Zhang / Zaki et al.:
  heterogeneity is task-dependent).  Weights start unknown, are seeded by
  calibration trial runs, and are refined by an exponentially weighted
  moving average as executions complete ("the newly measured execution
  time of each application task is stored in the task-performance
  database").
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.repository.delta import DeltaCallback
from repro.repository.store import (
    Table,
    composite_key,
    record_from_row,
    require_object,
)
from repro.util.errors import NotRegisteredError, RepositoryError


@dataclass
class TaskPerformanceRecord:
    """Static performance characteristics of one library task."""

    task_name: str
    #: dedicated base-processor execution time for unit-size input (s)
    base_time_s: float
    #: abstract operation count per unit input (relative compute size)
    computation_size: float
    #: output bytes produced per unit input (relative communication size)
    communication_size: float
    #: resident memory required per unit input (MB)
    memory_mb: float


@dataclass
class ExecutionSample:
    """One completed execution, as reported back by the Site Manager."""

    host: str
    input_size: float
    elapsed_s: float
    time: float
    observed_weight: float | None = None


class TaskPerformanceDB:
    """Task records, per-(task, host) weights, and execution history."""

    #: EWMA smoothing factor for weight refinement.
    ALPHA = 0.3

    def __init__(self) -> None:
        self._records: dict[str, TaskPerformanceRecord] = {}
        self._weights: dict[str, float] = {}  # key: task|host
        self._history: dict[str, list[ExecutionSample]] = {}
        self._subscribers: list[DeltaCallback] = []

    def subscribe(self, callback: DeltaCallback) -> None:
        """Register a delta callback ``cb(kind, a, b)`` (INV002 sink)."""
        self._subscribers.append(callback)

    def _notify(self, kind: str, a: str = "", b: str = "") -> None:
        for cb in self._subscribers:
            cb(kind, a, b)

    # -- task registration ----------------------------------------------
    def register_task(self, task_name: str, base_time_s: float,
                      computation_size: float = 1.0,
                      communication_size: float = 0.0,
                      memory_mb: float = 1.0) -> TaskPerformanceRecord:
        if base_time_s <= 0:
            raise RepositoryError(
                f"base time for {task_name!r} must be positive")
        if task_name in self._records:
            raise RepositoryError(f"task {task_name!r} already registered")
        rec = TaskPerformanceRecord(
            task_name=task_name, base_time_s=base_time_s,
            computation_size=computation_size,
            communication_size=communication_size, memory_mb=memory_mb)
        self._records[task_name] = rec
        self._notify("task", task_name)
        return rec

    def get(self, task_name: str) -> TaskPerformanceRecord:
        """Fetch a task's static performance record."""
        try:
            return self._records[task_name]
        except KeyError:
            raise NotRegisteredError(
                f"no task-performance record for {task_name!r}") from None

    def __contains__(self, task_name: str) -> bool:
        return task_name in self._records

    def task_names(self) -> list[str]:
        """Every registered task name."""
        return list(self._records)

    # -- computing-power weights -------------------------------------------
    def set_weight(self, task_name: str, host: str, weight: float) -> None:
        """Seed a weight from a calibration trial run."""
        if weight <= 0:
            raise RepositoryError("computing-power weight must be positive")
        self.get(task_name)  # validate task exists
        self._weights[composite_key(task_name, host)] = weight
        self._notify("weight", task_name, host)

    def weight(self, task_name: str, host: str,
               default: float | None = None) -> float:
        """The weight of *host* for *task*; *default* when never measured."""
        key = composite_key(task_name, host)
        w = self._weights.get(key)
        if w is not None:
            return w
        if default is not None:
            return default
        raise NotRegisteredError(
            f"no computing-power weight for task {task_name!r} on "
            f"host {host!r} and no default given")

    def has_weight(self, task_name: str, host: str) -> bool:
        """True when a calibrated/learned weight exists for the pair."""
        return composite_key(task_name, host) in self._weights

    # -- execution history ----------------------------------------------------
    def record_execution(self, task_name: str, host: str, input_size: float,
                         elapsed_s: float, time: float,
                         dedicated_elapsed_s: float | None = None,
                         base_time_at_size_s: float | None = None) -> None:
        """Store a completed execution; refine the weight when possible.

        *dedicated_elapsed_s* is the execution time with the time-sharing
        slowdown factored out (the Application Controller knows the loads
        it observed); when given, the implied weight updates the EWMA.
        *base_time_at_size_s* is the base-processor time at this input
        size (the controller evaluates the task's complexity model); the
        fallback assumes linear scaling, which is only correct for
        linear-complexity tasks.
        """
        rec = self.get(task_name)
        sample = ExecutionSample(host=host, input_size=input_size,
                                 elapsed_s=elapsed_s, time=time)
        if dedicated_elapsed_s is not None and input_size > 0:
            base = (base_time_at_size_s if base_time_at_size_s is not None
                    else rec.base_time_s * max(input_size, 1e-12))
            observed = dedicated_elapsed_s / base
            sample.observed_weight = observed
            key = composite_key(task_name, host)
            prev = self._weights.get(key)
            if prev is None:
                self._weights[key] = observed
            else:
                self._weights[key] = (1 - self.ALPHA) * prev + self.ALPHA * observed
            self._notify("weight", task_name, host)
        self._history.setdefault(task_name, []).append(sample)

    def history(self, task_name: str,
                host: str | None = None) -> list[ExecutionSample]:
        """Recorded executions of a task, optionally for one host."""
        samples = self._history.get(task_name, [])
        if host is None:
            return list(samples)
        return [s for s in samples if s.host == host]

    # -- persistence -------------------------------------------------------
    def save(self, path: str | Path) -> None:
        table = Table("task-performance")
        table.put("records", {k: asdict(v) for k, v in self._records.items()})
        table.put("weights", dict(self._weights))
        table.put("history", {
            k: [asdict(s) for s in v] for k, v in self._history.items()})
        table.save(path)

    @classmethod
    def load(cls, path: str | Path) -> "TaskPerformanceDB":
        table = Table.load(path)
        db = cls()

        def section(name: str) -> dict[str, Any]:
            return require_object(table.get_or(name), path,
                                  f"section {name!r}")

        for name, row in section("records").items():
            db._records[name] = record_from_row(
                TaskPerformanceRecord, row, path, name)
        db._weights = dict(section("weights"))
        for name, rows in section("history").items():
            if not isinstance(rows, list):
                raise RepositoryError(
                    f"{path}: section 'history' row {name!r} is not a list")
            db._history[name] = [
                record_from_row(ExecutionSample, r, path, f"{name}[{i}]")
                for i, r in enumerate(rows)]
        return db
