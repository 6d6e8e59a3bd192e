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

#: (task name, input size, processors, host address, record version,
#: task-performance version) — the full invalidation surface of one entry.
CacheKey = tuple[str, float, int, str, int, int]

#: Memoization cap: the cache is cleared wholesale when it grows past
#: this, bounding memory during long runs with churning record versions.
CACHE_MAX_ENTRIES = 4096


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

    :meth:`predict` evaluations are memoized per (task, input size,
    processors, record snapshot); :meth:`estimate` computes directly.
    The memo key includes the record's ``version`` stamp and the
    task-performance DB's weight ``version``, so a monitoring update,
    status change, or weight refinement automatically invalidates the
    affected entries — rescheduling after repository updates always sees
    fresh loads.  Call :meth:`invalidate` after mutating records outside
    the :class:`~repro.repository.resource_perf.ResourcePerformanceDB`
    API (direct field writes bypass the version stamps).
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
        self._cache: dict[CacheKey, Prediction] = {}

    def invalidate(self, host: str | None = None,
                   task: str | None = None) -> None:
        """Drop memoized evaluations, optionally targeted.

        With no arguments: drop everything (out-of-band record changes
        that bypassed the version stamps).  With *host* and/or *task*:
        drop only the entries for that host address / task definition —
        membership churn (a host unregistering) or a task redefinition
        no longer flushes the whole memo table, so the surviving entries
        keep serving the next scheduling round warm.
        """
        cache = self._cache
        if host is None and task is None:
            cache.clear()
            return
        dead = [key for key in cache
                if (host is None or key[3] == host)
                and (task is None or key[0] == task)]
        for key in dead:
            del cache[key]

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
    def _cache_key(self, definition: TaskDefinition, input_size: float,
                   record: ResourceRecord, processors: int) -> CacheKey:
        return (definition.name, input_size, processors, record.address,
                record.version, self.task_performance.version)

    def predict(self, definition: TaskDefinition, input_size: float,
                record: ResourceRecord, processors: int = 1) -> Prediction:
        """Evaluate Predict(task, R_j) for one host (memoized)."""
        key = self._cache_key(definition, input_size, record, processors)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        base = definition.base_execution_time(input_size,
                                              processors=processors)
        weight = self.weight_for(definition, record)
        load = self.load_forecast_for(record)
        mem = self.memory_penalty_for(definition, input_size, record)
        estimate = base * weight * (1.0 + load) * mem
        prediction = Prediction(
            task_name=definition.name, host=record.address,
            estimate_s=estimate, base_time_s=base, weight=weight,
            load_forecast=load, memory_penalty=mem,
            feasible=record.status == "up")
        if len(self._cache) >= CACHE_MAX_ENTRIES:
            self._cache.clear()
        self._cache[key] = prediction
        return prediction

    def estimate(self, definition: TaskDefinition, input_size: float,
                 record: ResourceRecord, processors: int = 1) -> float:
        """Public scalar Predict(task, R): estimate without diagnostics.

        The incremental host-selection views score thousands of
        candidates per delta batch, and :meth:`best_host`'s streaming
        scan never builds a Prediction for a host that cannot win: this
        is the allocation-free entry point both use.  It neither reads
        nor fills the memo (the same expression as :meth:`predict`, so
        the same float).
        """
        base = definition.base_execution_time(input_size,
                                              processors=processors)
        return (base * self.weight_for(definition, record)
                * (1.0 + self.load_forecast_for(record))
                * self.memory_penalty_for(definition, input_size, record))

    def best_host(self, definition: TaskDefinition, input_size: float,
                  records: list[ResourceRecord],
                  processors: int = 1,
                  diagnostics: list[Prediction] | None = None) -> Prediction:
        """The minimum-estimate feasible host among *records*.

        Deterministic tie-break on host address.  Raises
        :class:`NoFeasibleHostError` when every candidate is down or the
        list is empty — the caller (Host Selection Algorithm) has already
        applied constraint filtering.

        The scan streams the minimum: only the winner's Prediction is
        materialised.  Pass a *diagnostics* list to additionally receive
        the full evaluation for every up host (the pre-streaming
        behaviour, for callers that want to inspect the losers).
        """
        best_rec: ResourceRecord | None = None
        best_est = float("inf")
        for rec in records:
            if rec.status != "up":
                continue
            if diagnostics is not None:
                p = self.predict(definition, input_size, rec, processors)
                diagnostics.append(p)
                est = p.estimate_s
            else:
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
