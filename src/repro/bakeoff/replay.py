"""Scoring registered schedulers under sustained multi-tenant replay.

The classic bake-off (:mod:`repro.bakeoff.runner`) scores one AFG at a
time on an idle federation; this module scores schedulers under
*traffic*: the same deterministic arrival stream (an open-loop
generator from :mod:`repro.traffic`) is replayed against each
scheduler.  The replay pump's DRF grant decides which job runs next;
the scheduler places every granted job, and each contestant is scored
on what sustained load actually exposes: tenant wait times, delivered
utilization, fairness, and predicted work.

Determinism: one :class:`ReplayBakeoffConfig` fixes the arrival bytes
(same generator stream per scheduler — spawned per scheduler name so
contestants never perturb each other), the federation, and the JSON
(:meth:`ReplayBakeoffResult.to_json`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.experiments.measures import format_table
from repro.obs import OBS_OFF, Observability
from repro.scheduling.registry import SchedulerContext, create_scheduler
from repro.simcore.engine import Environment
from repro.tasklib import standard_registry
from repro.testing import build_federation
from repro.traffic.drf import DRFAllocator, fairness_stats
from repro.traffic.generators import OpenLoopGenerator, WorkloadShape
from repro.traffic.replay import CapacityBackend, ReplayEngine
from repro.traffic.templates import TEMPLATE_NAMES, template_by_name
from repro.traffic.tenancy import make_tenants, provision_tenants
from repro.traffic.trace import JobRequest
from repro.util.rng import RngRegistry

#: Default contestants: the optimal reference is excluded — a
#: branch-and-bound search per dispatched job is not a traffic regime.
DEFAULT_REPLAY_SCHEDULERS = ("site", "heft", "min-load", "round-robin")


@dataclass(frozen=True)
class ReplayBakeoffConfig:
    """Everything that determines a replay bake-off (and its JSON)."""

    schedulers: tuple[str, ...] = DEFAULT_REPLAY_SCHEDULERS
    seed: int = 7
    arrivals: int = 200
    users: int = 200
    tenants: int = 5
    rate_per_s: float = 2.0
    sites: tuple[str, ...] = ("syracuse", "rome")
    hosts_per_site: int = 3
    procs_per_site: int = 16
    memory_per_proc_mb: float = 512.0
    nproc_cap: int = 8


class ScheduledReplayBackend(CapacityBackend):
    """The capacity pools, with placement from a registered scheduler.

    Each dispatch builds the job's AFG template, schedules it, and
    seats ``nproc`` processors at the site the scheduler put the job's
    entry task on (falling back to the most-free site when that site
    cannot seat the width).  Service time is the trace duration —
    identical across contestants, so wait and fairness differences are
    attributable to placement alone.
    """

    def __init__(self, env: Environment, scheduler_name: str,
                 ctx: SchedulerContext, procs_per_site: int) -> None:
        super().__init__(env, ctx.repositories, procs_per_site)
        self.inner = create_scheduler(scheduler_name, ctx)
        self.registry = standard_registry()
        self.predicted_work_s = 0.0

    def ever_fits(self, req: JobRequest) -> bool:
        return super().ever_fits(req) and bool(req.template)

    def _place(self, req: JobRequest) -> str:
        graph = template_by_name(req.template).build(self.registry)
        table = self.inner.schedule(graph)
        self.predicted_work_s += table.predicted_total_work_s()
        site = next(iter(table.entries.values())).site
        if self.free[site] >= req.nproc:
            return site
        return super()._place(req)


@dataclass
class ReplayBakeoffResult:
    """One row per scheduler, scored under identical replay load."""

    config: ReplayBakeoffConfig
    rows: list[dict[str, object]] = field(default_factory=list)

    def render(self) -> str:
        shown = []
        for row in self.rows:
            shown.append({key: (f"{value:.4f}"
                                if isinstance(value, float) else value)
                          for key, value in row.items()})
        title = (f"replay bake-off: {self.config.arrivals} arrivals, "
                 f"{self.config.tenants} tenants, seed {self.config.seed}")
        return format_table(title, shown)

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, rounded floats, no wall-clock)."""
        payload = {
            "kind": "replay-bakeoff",
            "version": 1,
            "config": asdict(self.config),
            "rows": [
                {key: (round(value, 9) if isinstance(value, float)
                       else value)
                 for key, value in row.items()}
                for row in self.rows
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_replay_bakeoff(config: ReplayBakeoffConfig,
                       obs: Observability = OBS_OFF
                       ) -> ReplayBakeoffResult:
    """Replay the same arrival stream against every scheduler."""
    result = ReplayBakeoffResult(config=config)
    total_procs = len(config.sites) * config.procs_per_site
    for name in config.schedulers:
        rng = RngRegistry(config.seed)
        fed = build_federation(site_names=config.sites,
                               hosts_per_site=config.hosts_per_site,
                               seed=config.seed)
        tenants = make_tenants(config.tenants)
        provision_tenants(fed.repositories, tenants, users=config.users)
        allocator = DRFAllocator(
            capacity_procs=total_procs,
            capacity_memory_mb=total_procs * config.memory_per_proc_mb,
            tenants=tenants)
        env = Environment()
        ctx = SchedulerContext(
            repositories=fed.repositories, topology=fed.topology,
            local_site=config.sites[0],
            rng=rng.spawn(f"replay-bakeoff:{name}"), obs=obs)
        backend = ScheduledReplayBackend(env, name, ctx,
                                         config.procs_per_site)
        arrivals = OpenLoopGenerator(
            rng.spawn(name).stream("traffic-open-loop"),
            count=config.arrivals, rate_per_s=config.rate_per_s,
            users=config.users, tenants=config.tenants,
            templates=TEMPLATE_NAMES,
            shape=WorkloadShape(nproc_cap=config.nproc_cap))
        engine = ReplayEngine(env, arrivals, tenants, allocator, backend,
                              obs=obs)
        outcome = engine.run()
        dispatched = sum(s.dispatched for s in outcome.tenants.values())
        completed = sum(s.completed for s in outcome.tenants.values())
        busy = sum(backend.busy_proc_s.values())
        horizon = outcome.horizon_s or 1.0
        waits = [s.wait_sum_s for s in outcome.tenants.values()]
        service = {tenant: s.busy_proc_s
                   for tenant, s in outcome.tenants.items()}
        result.rows.append({
            "scheduler": name,
            "dispatched": dispatched,
            "completed": completed,
            "utilization": busy / (total_procs * horizon),
            "mean_wait_s": (sum(waits) / dispatched) if dispatched else 0.0,
            "jain_index": fairness_stats(service)["jain_index"],
            "drf_violations": outcome.drf_violations,
            "predicted_work_s": backend.predicted_work_s,
            "horizon_s": horizon,
        })
    return result
