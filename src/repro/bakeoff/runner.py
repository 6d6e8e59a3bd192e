"""The bake-off runner: N registered schedulers over M workloads.

One :func:`run_bakeoff` call builds a seeded federation (repositories
populated exactly as a running VDCE would populate them, deterministic
background loads drawn from a named rng stream), schedules every
workload with every requested scheduler, computes the branch-and-bound
optimal reference on AFGs small enough to search exhaustively, and
scores each cell (:mod:`repro.bakeoff.scoring`).

Everything is deterministic for a fixed :class:`BakeoffConfig`: the
federation, the load draws, each randomized scheduler's named rng
stream (spawned per (scheduler, workload), so reordering or dropping
schedulers never changes another's draws), and the canonical JSON
(:meth:`BakeoffResult.to_json`) — CI compares that byte stream against
a committed baseline.

Observability: each (scheduler, workload) evaluation runs inside a
``schedule-round`` span on a synthetic round clock (round *i* occupies
``[i, i+1)`` — the bake-off has no simulation time) and bumps the
per-scheduler ``bakeoff_rounds_total`` counter.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

from repro.afg.graph import ApplicationFlowGraph
from repro.bakeoff.scoring import ScheduleScore, score_schedule
from repro.experiments.measures import format_table
from repro.obs import OBS_OFF, Observability
from repro.scheduling.optimal import OptimalScheduler, SearchStats
from repro.scheduling.registry import (
    SchedulerContext,
    available_schedulers,
    create_scheduler,
)
from repro.tasklib import LibraryRegistry, standard_registry
from repro.testing import Federation, build_federation
from repro.util.errors import ConfigurationError
from repro.util.rng import RngRegistry
from repro.workloads.applications import (
    fork_join_graph,
    fourier_pipeline_graph,
    linear_solver_graph,
    random_layered_graph,
)

WorkloadBuilder = Callable[[LibraryRegistry], ApplicationFlowGraph]

#: The default bake-off workloads: small, structurally diverse AFGs —
#: all within the optimal reference's reach, so every cell gets a gap.
DEFAULT_WORKLOADS: dict[str, WorkloadBuilder] = {
    "solver-small": lambda reg: linear_solver_graph(reg, n=60),
    "pipeline-small": lambda reg: fourier_pipeline_graph(reg, n=2048,
                                                         stages=2),
    "forkjoin-small": lambda reg: fork_join_graph(reg, width=2, size=1024),
    "layered-a": lambda reg: random_layered_graph(reg, layers=2, width=2,
                                                  size=1024, seed=1),
    "layered-b": lambda reg: random_layered_graph(reg, layers=2, width=2,
                                                  size=2048, seed=2),
}


@dataclass(frozen=True)
class BakeoffConfig:
    """Everything that determines a bake-off run (and its JSON bytes)."""

    schedulers: tuple[str, ...]
    workloads: tuple[str, ...]
    seed: int = 0
    sites: tuple[str, ...] = ("syracuse", "rome")
    hosts_per_site: int = 3
    k_remote_sites: int = 2
    load_samples: int = 3          # monitoring updates per host
    load_drift: float = 0.15       # post-report true-load staleness
    optimal_task_limit: int = 9    # skip the reference above this
    optimal_node_budget: int = 2_000_000


@dataclass
class BakeoffResult:
    """Scores + optimal references from one run."""

    config: BakeoffConfig
    scores: list[ScheduleScore]
    optimal: dict[str, SearchStats] = field(default_factory=dict)

    def score_for(self, scheduler: str, workload: str) -> ScheduleScore:
        for s in self.scores:
            if s.scheduler == scheduler and s.workload == workload:
                return s
        raise KeyError(f"no score for ({scheduler!r}, {workload!r})")

    def render(self) -> str:
        """Aligned text table, one block per workload."""
        blocks = []
        for workload in self.config.workloads:
            rows = []
            for s in self.scores:
                if s.workload != workload:
                    continue
                row = s.as_row()
                row.pop("workload")
                row.pop("tasks")
                rows.append(row)
            ref = self.optimal.get(workload)
            title = (f"{workload} ({ref.tasks} tasks; optimal "
                     f"{ref.makespan_s:.3f}s predicted, "
                     f"{ref.nodes_explored} nodes explored)"
                     if ref is not None else
                     f"{workload} (no optimal reference: too large)")
            blocks.append(format_table(title, rows))
        return "\n\n".join(blocks)

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, rounded floats, no wall-clock —
        byte-identical across same-config runs (the CI contract)."""
        payload = {
            "kind": "bakeoff",
            "version": 1,
            "config": asdict(self.config),
            "optimal": {
                workload: {
                    "tasks": stats.tasks,
                    "candidates_total": stats.candidates_total,
                    "nodes_explored": stats.nodes_explored,
                    "nodes_pruned": stats.nodes_pruned,
                    "makespan_s": _round(stats.makespan_s),
                    "proven_optimal": stats.proven_optimal,
                }
                for workload, stats in sorted(self.optimal.items())
            },
            "rows": [
                {k: (_round(v) if isinstance(v, float) else v)
                 for k, v in score.as_row().items()}
                for score in self.scores
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _round(value: float, digits: int = 9) -> float:
    return round(float(value), digits)


def resolve_schedulers(spec: str) -> tuple[str, ...]:
    """Parse a CLI ``--schedulers`` value: ``all`` or a comma list."""
    if spec == "all":
        return tuple(available_schedulers())
    names = tuple(n.strip() for n in spec.split(",") if n.strip())
    if not names:
        raise ConfigurationError("no schedulers requested")
    return names


def resolve_workloads(spec: str) -> tuple[str, ...]:
    """Parse a CLI ``--workloads`` value: ``default`` or a comma list."""
    if spec == "default":
        return tuple(DEFAULT_WORKLOADS)
    names = tuple(n.strip() for n in spec.split(",") if n.strip())
    if not names:
        raise ConfigurationError("no workloads requested")
    for name in names:
        if name not in DEFAULT_WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {name!r}; available: "
                f"{', '.join(DEFAULT_WORKLOADS)}")
    return names


def _inject_loads(fed: Federation, config: BakeoffConfig,
                  rng: RngRegistry) -> None:
    """Seeded background loads, mirrored into ground truth + repository.

    Draws come from the named ``bakeoff-loads`` stream in sorted host
    order, so the load landscape is a pure function of the seed.  Each
    host gets ``load_samples`` monitoring updates (the forecaster reads
    the measurement window, not a single point); the true load then
    drifts by up to ``load_drift`` *after* the last report, modelling
    the monitoring pipeline's staleness — the simulated makespan plays
    out against the drifted truth while every scheduler only saw the
    reported window.
    """
    loads = rng.stream("bakeoff-loads")
    for address in sorted(fed.hosts):
        host = fed.hosts[address]
        host.true_load = float(loads.uniform(0.0, 1.2))
        repo = fed.repositories[host.site]
        for i in range(config.load_samples):
            repo.resource_performance.update_dynamic(
                address, cpu_load=host.cpu_load,
                available_memory_mb=host.memory_available_mb,
                time=float(i))
        drift = float(loads.uniform(-config.load_drift, config.load_drift))
        host.true_load = max(0.0, host.true_load + drift)


def run_bakeoff(config: BakeoffConfig,
                registry: LibraryRegistry | None = None,
                obs: Observability | None = None) -> BakeoffResult:
    """Run every requested scheduler over every requested workload."""
    registry = registry or standard_registry()
    obs = obs if obs is not None else OBS_OFF
    rng = RngRegistry(config.seed)
    fed = build_federation(site_names=config.sites,
                           hosts_per_site=config.hosts_per_site,
                           seed=config.seed, registry=registry)
    _inject_loads(fed, config, rng)
    local_site = config.sites[0]
    result = BakeoffResult(config=config, scores=[])
    round_clock = 0.0
    for workload in config.workloads:
        try:
            builder = DEFAULT_WORKLOADS[workload]
        except KeyError:
            raise ConfigurationError(
                f"unknown workload {workload!r}; available: "
                f"{', '.join(sorted(DEFAULT_WORKLOADS))}") from None
        graph = builder(registry)
        # -- the ground-truth reference (small AFGs only) ----------------
        optimal_table = None
        optimal_makespan: float | None = None
        if len(graph) <= config.optimal_task_limit:
            reference = OptimalScheduler(
                fed.repositories, fed.topology,
                node_budget=config.optimal_node_budget, obs=obs)
            optimal_table, stats = reference.search(graph)
            result.optimal[workload] = stats
            optimal_makespan = stats.makespan_s
        # -- every contestant --------------------------------------------
        for name in config.schedulers:
            ctx = SchedulerContext(
                repositories=fed.repositories, topology=fed.topology,
                local_site=local_site,
                k_remote_sites=config.k_remote_sites,
                rng=rng.spawn(f"bakeoff:{name}:{workload}"), obs=obs)
            span_id = None
            if obs.enabled:
                span_id = obs.spans.begin(
                    f"bakeoff:{name}:{workload}", "schedule-round",
                    "bakeoff", round_clock, scheduler=name,
                    workload=workload)
            if name == "optimal" and optimal_table is not None:
                table = optimal_table  # the reference *is* its own run
            else:
                table = create_scheduler(name, ctx).schedule(graph)
            result.scores.append(score_schedule(
                name, workload, graph, table, fed, local_site,
                optimal_makespan))
            if obs.enabled and span_id is not None:
                obs.spans.end(span_id, round_clock + 1.0,
                              tasks=len(graph))
                obs.metrics.counter(
                    "bakeoff_rounds_total",
                    help="bake-off schedule rounds evaluated").inc(
                        scheduler=name)
            round_clock += 1.0
    return result
