"""The performance prediction function ``Predict(task_i, R_j)``.

Paper section 2.2.1: "in VDCE we provide separate function evaluations,
Predict(task_i, R_j), to predict the performance of each task on each
resource. ... The input parameters of the prediction functions include:
Measured_Time(task_i, R_base) ...; Weight(task_i, R_j) ...;
Mem_Req(task_i) ...; Memory_Avail(R_j) ...; and CPU_load(R_j)."

The composition mirrors the simulator's ground-truth time model so a
*perfect* repository view predicts exactly:

    Predict = MeasuredTime(task, R_base)          # scaled to input size
              * Weight(task, R_j)                 # task-specific heterogeneity
              * (1 + CPU_load_forecast(R_j))      # time-sharing stretch
              * memory_penalty(Mem_Req, Avail)    # paging cliff

Each term can be disabled for the A1 ablation benchmark; the prediction
degrades accordingly, which is the paper's implicit claim ("the core of
the given built-in scheduling algorithms is the performance prediction
phase").

Nothing is memoized: every evaluation reads the repository view as it
is now.  Consumers that keep derived views (the host-selection score
views) follow repository change through the delta journal
(:mod:`repro.repository.delta`), the repository's one change-tracking
mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.prediction.forecasting import Forecaster, MeanForecaster
from repro.repository.resource_perf import ResourceRecord
from repro.repository.task_perf import TaskPerformanceDB
from repro.tasklib.base import TaskDefinition
from repro.util.errors import NoFeasibleHostError

#: Paging penalty slope, matching Host.slowdown's ground truth.
MEMORY_PENALTY_SLOPE = 4.0


@dataclass(frozen=True)
class Prediction:
    """One evaluated Predict(task, R): the estimate plus its factors."""

    task_name: str
    host: str
    estimate_s: float
    base_time_s: float
    weight: float
    load_forecast: float
    memory_penalty: float
    feasible: bool = True


class PerformancePredictor:
    """Evaluates Predict(task, R) against the repository view.

    Every evaluation reads the record and the task-performance DB as
    they are now, so a monitoring update, status change or weight
    refinement shows in the next call.
    """

    def __init__(self, task_performance: TaskPerformanceDB,
                 forecaster: Forecaster | None = None,
                 use_weight: bool = True,
                 use_load: bool = True,
                 use_memory: bool = True) -> None:
        self.task_performance = task_performance
        self.forecaster = forecaster or MeanForecaster()
        self.use_weight = use_weight
        self.use_load = use_load
        self.use_memory = use_memory

    # -- components -------------------------------------------------------
    def weight_for(self, definition: TaskDefinition,
                   record: ResourceRecord) -> float:
        """Weight(task, R): measured when available, else the host's
        general cpu_factor (the repository's static attribute)."""
        if not self.use_weight:
            return 1.0
        return self.task_performance.weight(
            definition.name, record.address, default=record.cpu_factor)

    def load_forecast_for(self, record: ResourceRecord) -> float:
        """CPU_load(R): forecast from the record's measurement window."""
        if not self.use_load:
            return 0.0
        return max(0.0, self.forecaster.forecast(record.load_window))

    def memory_penalty_for(self, definition: TaskDefinition,
                           input_size: float,
                           record: ResourceRecord) -> float:
        """Memory term: paging penalty when Mem_Req exceeds availability."""
        if not self.use_memory:
            return 1.0
        required = definition.memory_required_mb(input_size)
        overflow = required - record.available_memory_mb
        if overflow <= 0:
            return 1.0
        total = max(record.total_memory_mb, 1e-9)
        return 1.0 + MEMORY_PENALTY_SLOPE * overflow / total

    # -- the prediction function ------------------------------------------
    def predict(self, definition: TaskDefinition, input_size: float,
                record: ResourceRecord, processors: int = 1) -> Prediction:
        """Evaluate Predict(task, R_j) for one host, with its factors."""
        base = definition.base_execution_time(input_size,
                                              processors=processors)
        weight = self.weight_for(definition, record)
        load = self.load_forecast_for(record)
        mem = self.memory_penalty_for(definition, input_size, record)
        return Prediction(
            task_name=definition.name, host=record.address,
            estimate_s=base * weight * (1.0 + load) * mem,
            base_time_s=base, weight=weight,
            load_forecast=load, memory_penalty=mem,
            feasible=record.status == "up")

    def estimate(self, definition: TaskDefinition, input_size: float,
                 record: ResourceRecord, processors: int = 1) -> float:
        """Public scalar Predict(task, R): estimate without diagnostics.

        The incremental host-selection views score thousands of
        candidates per delta batch, and :meth:`best_host`'s streaming
        scan never builds a Prediction for a host that cannot win: this
        is the allocation-free entry point both use (the same expression
        as :meth:`predict`, so the same float).
        """
        base = definition.base_execution_time(input_size,
                                              processors=processors)
        return (base * self.weight_for(definition, record)
                * (1.0 + self.load_forecast_for(record))
                * self.memory_penalty_for(definition, input_size, record))

    def best_host(self, definition: TaskDefinition, input_size: float,
                  records: list[ResourceRecord],
                  processors: int = 1) -> Prediction:
        """The minimum-estimate feasible host among *records*.

        Deterministic tie-break on host address.  Raises
        :class:`NoFeasibleHostError` when every candidate is down or the
        list is empty — the caller (Host Selection Algorithm) has already
        applied constraint filtering.

        The scan streams the minimum: only the winner's Prediction is
        materialised.
        """
        best_rec: ResourceRecord | None = None
        best_est = float("inf")
        for rec in records:
            if rec.status != "up":
                continue
            est = self.estimate(definition, input_size, rec, processors)
            if est < best_est or (est == best_est and best_rec is not None
                                  and rec.address < best_rec.address):
                best_est = est
                best_rec = rec
        if best_rec is None:
            raise NoFeasibleHostError(
                f"no feasible host for task {definition.name!r} "
                f"among {len(records)} records")
        return self.predict(definition, input_size, best_rec, processors)
