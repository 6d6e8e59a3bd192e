"""The replay engine: lazy arrival streaming + DRF dispatch over the DES.

:class:`ReplayEngine` drives any arrival iterator (a loaded trace, the
synthetic Alibaba trace, an open- or closed-loop generator) through the
simulation kernel **lazily**: exactly one un-fired arrival is scheduled
at a time — each ``call_later`` callback admits the current job and
primes the next, so a 100k-job replay costs one heap entry of arrival
state, never a materialised event set.

Dispatch is progressive filling (:mod:`repro.traffic.drf`): whenever
capacity frees up or a job is admitted, the pump repeatedly grants the
head job of the eligible tenant with the lowest weighted dominant
share, charging the DRF allocator and the backend until nothing
eligible remains.  Every decision is audited — a dispatch that was not
share-minimal among eligible tenants counts as a ``drf_violation``
(asserted zero by ``repro replay --check``).

The pump is the one grant decision: a backend only seats, and later
completes, the jobs it was handed.  The default :class:`CapacityBackend`
models each site as a processor pool (jobs occupy ``nproc`` processors
for their trace duration via one ``call_later`` completion entry) —
that is what sustains 100k+ arrivals in seconds.  The scheduled backend
(:mod:`repro.bakeoff.replay`) is the same pool with placement from a
registered scheduler; the VDCE backend
(:class:`~repro.traffic.vdce_replay.VdceReplayBackend`) plugs real
execution underneath the same pump.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import asdict, dataclass, field
from typing import Protocol

from repro.experiments.measures import format_table
from repro.obs import OBS_OFF, Observability
from repro.repository.user_accounts import TenantRecord
from repro.simcore.engine import Environment
from repro.traffic.admission import AdmissionController, QueuedJob
from repro.traffic.drf import DRFAllocator, fairness_stats
from repro.traffic.generators import (
    ClosedLoopGenerator,
    OpenLoopGenerator,
)
from repro.traffic.templates import TEMPLATE_NAMES, template_by_name
from repro.traffic.tenancy import make_tenants
from repro.traffic.trace import (
    JobRequest,
    load_trace,
    synthetic_alibaba_trace,
)
from repro.util.errors import ConfigurationError
from repro.util.rng import RngRegistry

#: Memory charged per processor when a request carries no template.
DEFAULT_MEM_PER_PROC_MB = 256.0

GENERATORS = ("open-loop", "closed-loop", "synthetic-alibaba", "trace")


class ReplayBackend(Protocol):
    """What the pump needs from an execution backend."""

    def fits(self, req: JobRequest) -> bool:
        """Can *req* start right now (transient resource check)?"""
        ...  # pragma: no cover

    def ever_fits(self, req: JobRequest) -> bool:
        """Could *req* start on an idle federation (static check)?"""
        ...  # pragma: no cover

    def start(self, req: JobRequest,
              on_complete: Callable[[], None]) -> None:
        """Begin executing *req*; call *on_complete* when it finishes."""
        ...  # pragma: no cover


class CapacityBackend:
    """Per-site processor pools with trace-duration service times.

    ``_place`` seats a job at the most-free site that fits it;
    :class:`~repro.bakeoff.replay.ScheduledReplayBackend` keeps these
    pools and overrides only placement (and ``ever_fits``).
    """

    def __init__(self, env: Environment, sites: Iterable[str],
                 procs_per_site: int) -> None:
        self.env = env
        self.free: dict[str, int] = {site: procs_per_site
                                     for site in sorted(sites)}
        self.procs_per_site = procs_per_site
        self.busy_proc_s: dict[str, float] = {site: 0.0
                                              for site in self.free}
        self._site_names = sorted(self.free)

    def fits(self, req: JobRequest) -> bool:
        nproc = req.nproc
        for site in self._site_names:
            if self.free[site] >= nproc:
                return True
        return False

    def ever_fits(self, req: JobRequest) -> bool:
        return req.nproc <= self.procs_per_site and bool(self._site_names)

    def _place(self, req: JobRequest) -> str:
        """Most-free site that fits, ties broken by name (deterministic)."""
        best = ""
        best_free = -1
        for site in self._site_names:
            free = self.free[site]
            if free >= req.nproc and free > best_free:
                best, best_free = site, free
        return best

    def start(self, req: JobRequest,
              on_complete: Callable[[], None]) -> None:
        site = self._place(req)
        if not site:
            raise RuntimeError(
                f"backend.start without a fitting site for {req.job}")
        self.free[site] -= req.nproc
        self.env.call_later(req.duration_s, self._finish,
                            (site, req, on_complete))

    def _finish(self, handoff: tuple[str, JobRequest, Callable[[], None]]
                ) -> None:
        site, req, on_complete = handoff
        self.free[site] += req.nproc
        self.busy_proc_s[site] += req.nproc * req.duration_s
        on_complete()


@dataclass
class TenantReplayStats:
    """Per-tenant dispatch/completion counters the report renders."""

    dispatched: int = 0
    completed: int = 0
    busy_proc_s: float = 0.0
    wait_sum_s: float = 0.0
    wait_max_s: float = 0.0


@dataclass
class ReplayOutcome:
    """Everything one engine run measured (pre-serialisation)."""

    horizon_s: float = 0.0
    drf_decisions: int = 0
    drf_violations: int = 0
    tenants: dict[str, TenantReplayStats] = field(default_factory=dict)
    final_shares: dict[str, float] = field(default_factory=dict)


class ReplayEngine:
    """Stream arrivals through admission and the DRF dispatch pump."""

    def __init__(self, env: Environment, arrivals: Iterable[JobRequest],
                 tenants: Mapping[str, TenantRecord],
                 allocator: DRFAllocator, backend: ReplayBackend,
                 obs: Observability = OBS_OFF) -> None:
        self.env = env
        self.backend = backend
        self.allocator = allocator
        self.obs = obs
        self._iter: Iterator[JobRequest] = iter(arrivals)
        self._tenant_names = sorted(tenants)
        self.admission = AdmissionController(
            env, tenants, allocator, demand_fn=self.demand_of,
            on_admit=self._on_admitted,
            feasible_fn=lambda req, demand: self.backend.ever_fits(req),
            obs=obs)
        self.outcome = ReplayOutcome(
            tenants={name: TenantReplayStats()
                     for name in self._tenant_names})
        self._in_pump = False

    @staticmethod
    def demand_of(req: JobRequest) -> tuple[float, float]:
        """Price a request: (procs, memory) from its AFG template."""
        mem = DEFAULT_MEM_PER_PROC_MB
        if req.template:
            mem = template_by_name(req.template).mem_per_proc_mb
        return (float(req.nproc), float(req.nproc) * mem)

    # -- lazy arrival streaming -------------------------------------------
    def _schedule_next_arrival(self) -> None:
        req = next(self._iter, None)
        if req is None:
            return
        self.env.call_later(max(req.submit_time_s - self.env.now, 0.0),
                            self._arrive, req)

    def _arrive(self, req: JobRequest) -> None:
        # prime the next arrival first: exactly one pending arrival event
        # lives in the heap at any instant
        self._schedule_next_arrival()
        self.admission.submit(req)

    def _on_admitted(self, _tenant: str) -> None:
        self._pump()

    # -- the DRF dispatch pump --------------------------------------------
    def _eligible(self) -> list[str]:
        out = []
        for name in self._tenant_names:
            queue = self.admission.queues[name]
            if not queue:
                continue
            head = queue[0]
            if self.allocator.can_allocate(name, head.demand) \
                    and self.backend.fits(head.req):
                out.append(name)
        return out

    def _pump(self) -> None:
        if self._in_pump:  # completions re-enter via on_complete
            return
        self._in_pump = True
        try:
            while True:
                eligible = self._eligible()
                pick = self.allocator.pick(eligible)
                if pick is None:
                    return
                self.outcome.drf_decisions += 1
                if len(eligible) > 1:
                    min_share = min(self.allocator.dominant_share(name)
                                    for name in eligible)
                    if self.allocator.dominant_share(pick) \
                            > min_share + 1e-12:
                        self.outcome.drf_violations += 1
                self._dispatch(pick, self.admission.queues[pick].popleft())
        finally:
            self._in_pump = False

    def _dispatch(self, tenant: str, job: QueuedJob) -> None:
        stats = self.outcome.tenants[tenant]
        wait = self.env.now - job.req.submit_time_s
        stats.dispatched += 1
        stats.wait_sum_s += wait
        if wait > stats.wait_max_s:
            stats.wait_max_s = wait
        self.allocator.allocate(tenant, job.demand)
        if self.obs.enabled:
            self.obs.metrics.counter(
                "traffic_dispatched_total",
                help="jobs granted resources by the DRF pump").inc(
                    tenant=tenant)
            self.obs.metrics.histogram(
                "traffic_wait_s",
                help="admission-to-dispatch wait per job").observe(
                    wait, tenant=tenant)
        self.backend.start(
            job.req, on_complete=lambda: self._complete(tenant, job))

    def _complete(self, tenant: str, job: QueuedJob) -> None:
        self.allocator.release(tenant, job.demand)
        stats = self.outcome.tenants[tenant]
        stats.completed += 1
        stats.busy_proc_s += job.req.nproc * job.req.duration_s
        if self.obs.enabled:
            self.obs.metrics.counter(
                "traffic_completed_total",
                help="jobs completed per tenant").inc(tenant=tenant)
        self._pump()

    # -- driving -----------------------------------------------------------
    def prime(self) -> None:
        """Arm the lazy arrival stream without draining the environment.

        For callers embedding the engine in a live testbed (the chaos
        suite's VDCE-backed replays) that drive the shared environment
        in bounded slices themselves; call :meth:`finalize` when done.
        """
        self._schedule_next_arrival()

    def finalize(self) -> ReplayOutcome:
        """Stamp the horizon and final shares; returns the outcome."""
        self.outcome.horizon_s = self.env.now
        self.outcome.final_shares = self.allocator.shares()
        return self.outcome

    def run(self) -> ReplayOutcome:
        """Play the whole stream and drain: returns the measured outcome."""
        self.prime()
        self.env.run()
        return self.finalize()


# -- the packaged replay ---------------------------------------------------

@dataclass(frozen=True)
class ReplayConfig:
    """Everything that determines a replay run (and its report bytes)."""

    generator: str = "open-loop"
    trace_path: str = ""
    seed: int = 11
    arrivals: int = 100_000
    users: int = 1000
    tenants: int = 10
    rate_per_s: float = 40.0
    think_time_s: float = 20.0
    sites: tuple[str, ...] = ("syracuse", "cornell", "rome", "geneva")
    procs_per_site: int = 64
    memory_per_proc_mb: float = 512.0
    weight_skew: float = 0.0
    quota_procs: int = 0
    quota_memory_mb: float = 0.0
    rate_limit_per_s: float = 0.0
    burst: int = 8
    max_pending: int = 0

    def validate(self) -> None:
        if self.generator not in GENERATORS:
            raise ConfigurationError(
                f"unknown generator {self.generator!r}; "
                f"expected one of {GENERATORS}")
        if self.generator == "trace" and not self.trace_path:
            raise ConfigurationError("--trace requires a trace file path")
        if self.arrivals < 0 or self.users < 1 or self.tenants < 1:
            raise ConfigurationError(
                "arrivals must be >= 0; users and tenants >= 1")
        if self.tenants > self.users:
            raise ConfigurationError("tenants may not exceed users")
        if not self.sites or self.procs_per_site < 1:
            raise ConfigurationError(
                "at least one site with >= 1 processor is required")


@dataclass
class ReplayReport:
    """Canonical, deterministic summary of one replay."""

    config: ReplayConfig
    outcome: ReplayOutcome
    admission: dict[str, dict[str, object]]

    def tenant_rows(self) -> list[dict[str, object]]:
        rows = []
        horizon = self.outcome.horizon_s or 1.0
        capacity = (len(self.config.sites) * self.config.procs_per_site
                    * horizon)
        for name in sorted(self.outcome.tenants):
            stats = self.outcome.tenants[name]
            adm = self.admission.get(name, {})
            dispatched = stats.dispatched
            rows.append({
                "tenant": name,
                "arrivals": adm.get("arrivals", 0),
                "admitted": adm.get("admitted", 0),
                "throttled": adm.get("throttled", 0),
                "rejected": adm.get("rejected_total", 0),
                "dispatched": dispatched,
                "completed": stats.completed,
                "utilization": stats.busy_proc_s / capacity,
                "mean_wait_s": (stats.wait_sum_s / dispatched
                                if dispatched else 0.0),
                "max_wait_s": stats.wait_max_s,
                "dominant_share_end": self.outcome.final_shares.get(name,
                                                                    0.0),
            })
        return rows

    def totals(self) -> dict[str, object]:
        rows = self.tenant_rows()
        ints = ("arrivals", "admitted", "throttled", "rejected",
                "dispatched", "completed")
        out: dict[str, object] = {key: sum(int(row[key])  # type: ignore[call-overload]
                                           for row in rows)
                                  for key in ints}
        out["horizon_s"] = self.outcome.horizon_s
        out["utilization"] = sum(float(row["utilization"])  # type: ignore[arg-type]
                                 for row in rows)
        out["drf_decisions"] = self.outcome.drf_decisions
        out["drf_violations"] = self.outcome.drf_violations
        return out

    def fairness(self) -> dict[str, float]:
        """Jain index + spread over delivered tenant service
        (busy processor-seconds)."""
        service = {name: stats.busy_proc_s
                   for name, stats in self.outcome.tenants.items()}
        return fairness_stats(service)

    def render(self) -> str:
        totals = self.totals()
        head = (
            f"replay: {self.config.generator} seed={self.config.seed} "
            f"arrivals={totals['arrivals']} users={self.config.users} "
            f"tenants={self.config.tenants}\n"
            f"horizon {float(totals['horizon_s']):.1f}s  "  # type: ignore[arg-type]
            f"utilization {float(totals['utilization']):.3f}  "  # type: ignore[arg-type]
            f"dispatched {totals['dispatched']}  "
            f"completed {totals['completed']}  "
            f"drf violations {totals['drf_violations']}"
            f"/{totals['drf_decisions']}")
        rows = []
        for row in self.tenant_rows():
            rows.append({key: (f"{value:.4f}"
                               if isinstance(value, float) else value)
                         for key, value in row.items()})
        fairness = self.fairness()
        tail = (f"fairness: jain={fairness['jain_index']:.4f} "
                f"max_share={fairness['max_share']:.4f} "
                f"min_share={fairness['min_share']:.4f}")
        return "\n\n".join([head, format_table("per-tenant", rows), tail])

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, rounded floats, no wall-clock —
        byte-identical across same-config runs (the CI replay contract)."""
        payload = {
            "kind": "traffic-replay",
            "version": 1,
            "config": asdict(self.config),
            "totals": _round_tree(self.totals()),
            "tenants": [_round_tree(row) for row in self.tenant_rows()],
            "fairness": _round_tree(self.fairness()),
            "admission": _round_tree(self.admission),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _round_tree(value: object) -> object:
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {key: _round_tree(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_tree(item) for item in value]
    return value


def build_arrivals(config: ReplayConfig,
                   rng: RngRegistry) -> Iterable[JobRequest]:
    """The lazy arrival stream for *config* (named rng streams)."""
    templates = TEMPLATE_NAMES
    if config.generator == "open-loop":
        return OpenLoopGenerator(
            rng.stream("traffic-open-loop"), count=config.arrivals,
            rate_per_s=config.rate_per_s, users=config.users,
            tenants=config.tenants, templates=templates)
    if config.generator == "closed-loop":
        return ClosedLoopGenerator(
            rng.stream("traffic-closed-loop"), count=config.arrivals,
            users=config.users, tenants=config.tenants,
            think_time_s=config.think_time_s, templates=templates)
    if config.generator == "synthetic-alibaba":
        return synthetic_alibaba_trace(
            rng.stream("traffic-trace"), count=config.arrivals,
            users=config.users, tenants=config.tenants,
            templates=templates, mean_rate_per_s=config.rate_per_s)
    return load_trace(config.trace_path, tenants=config.tenants,
                      templates=templates)


def run_replay(config: ReplayConfig,
               obs: Observability = OBS_OFF) -> ReplayReport:
    """Run one capacity-model replay end to end, deterministically."""
    config.validate()
    rng = RngRegistry(config.seed).spawn("traffic")
    env = Environment()
    tenants = make_tenants(
        config.tenants, weight_skew=config.weight_skew,
        quota_procs=config.quota_procs,
        quota_memory_mb=config.quota_memory_mb,
        rate_per_s=config.rate_limit_per_s, burst=config.burst,
        max_pending=config.max_pending)
    total_procs = len(config.sites) * config.procs_per_site
    allocator = DRFAllocator(
        capacity_procs=total_procs,
        capacity_memory_mb=total_procs * config.memory_per_proc_mb,
        tenants=tenants)
    backend = CapacityBackend(env, config.sites, config.procs_per_site)
    engine = ReplayEngine(env, build_arrivals(config, rng), tenants,
                          allocator, backend, obs=obs)
    outcome = engine.run()
    admission = {
        name: {
            "arrivals": stats.arrivals,
            "admitted": stats.admitted,
            "throttled": stats.throttled,
            "rejected_total": sum(stats.rejected.values()),
            "rejected": {reason: count
                         for reason, count in sorted(stats.rejected.items())
                         if count},
            "max_queue_depth": stats.max_queue_depth,
        }
        for name, stats in sorted(engine.admission.stats.items())
    }
    return ReplayReport(config=config, outcome=outcome,
                        admission=admission)


def check_report(report: ReplayReport) -> list[str]:
    """Hard replay invariants (the ``repro replay --check`` gate).

    * every arrival is accounted for: admitted + rejected == arrivals,
      and nothing is left throttle-pending after the drain;
    * everything admitted was dispatched and completed (the DES drained);
    * zero DRF violations: every grant went to a share-minimal eligible
      tenant (no tenant sat below fair share while another, with the
      resources to run, was served past it).
    """
    problems = []
    totals = report.totals()
    if totals["admitted"] != totals["dispatched"]:
        problems.append(
            f"admitted {totals['admitted']} != dispatched "
            f"{totals['dispatched']} (jobs stranded in queues)")
    if totals["dispatched"] != totals["completed"]:
        problems.append(
            f"dispatched {totals['dispatched']} != completed "
            f"{totals['completed']} (jobs stranded in flight)")
    for name, row in sorted(report.admission.items()):
        arrivals = int(row["arrivals"])  # type: ignore[arg-type]
        admitted = int(row["admitted"])  # type: ignore[arg-type]
        rejected = int(row["rejected_total"])  # type: ignore[arg-type]
        if admitted + rejected != arrivals:
            problems.append(
                f"tenant {name}: admitted {admitted} + rejected "
                f"{rejected} != arrivals {arrivals}")
    if report.outcome.drf_violations:
        problems.append(
            f"{report.outcome.drf_violations} DRF violations in "
            f"{report.outcome.drf_decisions} decisions")
    shares = report.outcome.final_shares
    if any(share < -1e-9 for share in shares.values()):
        problems.append("negative final dominant share")
    return problems
