"""The benchmark's three workloads, driven through the public facade.

Each workload is split the way a user meets it: :meth:`Workload.setup`
is everything before the first submission (testbed build, ``start``,
membership, failover, fault plan, warm-up, inputs), :meth:`Workload.drive`
is the run phase, and :func:`check` audits the outcome.  The program
only ever sees generated inputs; the seed stays on this side.

Why these three (README.md has the measured layer shares):

* ``dag_2k`` -- one 2003-task layered DAG on a loaded two-site NYNET
  testbed, closed loop with one client: host selection, Predict and
  load-triggered rescheduling dominate; traffic, recovery and
  federation do no work.
* ``replay_trace`` -- the checked-in 1000-job trace, open loop at the
  trace timestamps, ten DRF tenants, through ``VdceReplayBackend`` on a
  loaded 4x8 federation: per-application costs (AFG build/validate,
  schedule rounds, allocation fan-out, admission) come first.
* ``churn_federation`` -- a small application every 10 sim-s for 1100
  sim-s on a 4x8 federation with membership, failover on every site, a
  flapping WAN link, a host crash, a server crash and a site join:
  monitor, WAL and heartbeat *writes* dominate the network and the
  repository; scheduling and the Application Controllers are light.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

#: Simulated seconds of monitor/load activity before the first submit,
#: so repositories hold real measurements.
WARM_UP_S = 30.0

#: A run phase that has not drained by then has failed (timeouts).
MAX_RUN_SIM_S = 3600.0

#: Simulated seconds per ``env.run`` slice of the driver loops; the
#: speed probe runs between slices, so they are short.
STEP_S = 1.0

TRACE_FILE = Path("data") / "traces" / "alibaba_sample.trace"


@dataclass
class App:
    """One attempted application: when it was due, and its live run."""

    due: float
    run: Any = None
    rejected: bool = False


@dataclass
class Replication:
    """One set-up testbed and what its run phase did."""

    workload: str
    seed: int
    vdce: Any
    apps: list[App] = field(default_factory=list)
    #: workload-specific handles (the graph to submit, the replay engine)
    extra: dict[str, Any] = field(default_factory=dict)
    start_sim: float = 0.0


def nearest_rank(values: list[float], q: float) -> float:
    """The nearest-rank *q*-quantile of *values* (non-empty)."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def tail_quantile(samples: int) -> float:
    """Highest of p99/p90/p50 with at least ten samples beyond it.

    With fewer than eleven samples there is none; the tail is then the
    largest sample (for ``dag_2k``, the single makespan).
    """
    for q in (0.99, 0.9, 0.5):
        if samples * (1.0 - q) >= 10.0 - 1e-9:
            return q
    return 1.0


class Workload:
    """Set-up and run-phase recipe for one workload."""

    name = ""

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke
        #: called before every simulation slice of the run phase (the
        #: timed replications hang the machine-speed probe here)
        self.between_slices: Callable[[], None] | None = None

    def setup(self, seed: int) -> Replication:
        raise NotImplementedError

    def drive(self, rep: Replication) -> None:
        raise NotImplementedError

    def advance(self, vdce, until: float) -> None:
        """Run the simulation to *until* in slices of ``STEP_S``."""
        while vdce.now < until:
            if self.between_slices is not None:
                self.between_slices()
            vdce.env.run(until=min(vdce.now + STEP_S, until))


class Dag2k(Workload):
    """One large random layered DAG on the loaded NYNET testbed."""

    name = "dag_2k"

    def setup(self, seed: int) -> Replication:
        from repro.workloads import nynet_testbed
        from repro.workloads.applications import random_layered_graph

        vdce = nynet_testbed(seed=seed, hosts_per_site=8)
        vdce.start()
        vdce.warm_up(WARM_UP_S)
        layers, width = (6, 5) if self.smoke else (50, 40)
        graph = random_layered_graph(vdce.registry, layers=layers,
                                     width=width, seed=seed)
        rep = Replication(self.name, seed, vdce)
        rep.extra["graph"] = graph
        return rep

    def drive(self, rep: Replication) -> None:
        vdce = rep.vdce
        rep.start_sim = vdce.now
        process, run = vdce.submit(rep.extra.pop("graph"), "syracuse",
                                   k_remote_sites=1)
        rep.apps.append(App(due=vdce.now, run=run))
        deadline = vdce.now + MAX_RUN_SIM_S
        while not process.triggered and vdce.now < deadline:
            self.advance(vdce, vdce.now + STEP_S)


class ReplayTrace(Workload):
    """The checked-in trace replayed open-loop through the real runtime."""

    name = "replay_trace"
    tenants = 10
    max_in_flight = 8

    def __init__(self, smoke: bool = False, root: Path = Path(".")) -> None:
        super().__init__(smoke)
        self.trace_path = root / TRACE_FILE

    def setup(self, seed: int) -> Replication:
        from repro.traffic import DRFAllocator, ReplayEngine, make_tenants
        from repro.traffic.templates import TEMPLATE_NAMES
        from repro.traffic.trace import load_trace
        from repro.traffic.vdce_replay import VdceReplayBackend
        from repro.workloads import wide_area_testbed

        vdce = wide_area_testbed(n_sites=4, hosts_per_site=8, seed=seed)
        vdce.start()
        vdce.warm_up(WARM_UP_S)
        t0 = vdce.now
        requests = list(load_trace(self.trace_path, tenants=self.tenants,
                                   templates=TEMPLATE_NAMES))
        if self.smoke:
            requests = requests[:40]
        # the trace's clock starts at the end of the warm-up
        requests = [replace(r, submit_time_s=r.submit_time_s + t0)
                    for r in requests]
        tenants = make_tenants(self.tenants)
        hosts = len(vdce.world.all_hosts())
        allocator = DRFAllocator(hosts, hosts * 512.0, tenants)
        backend = VdceReplayBackend(
            vdce, sites=tuple(sorted(vdce.world.sites)),
            max_in_flight=self.max_in_flight)
        engine = ReplayEngine(vdce.env, requests, tenants, allocator,
                              backend)
        rep = Replication(self.name, seed, vdce)
        rep.extra.update(engine=engine, backend=backend,
                         arrivals=len(requests))
        return rep

    def drive(self, rep: Replication) -> None:
        vdce = rep.vdce
        engine = rep.extra["engine"]
        expected = rep.extra["arrivals"]
        rep.start_sim = vdce.now
        engine.prime()
        deadline = vdce.now + MAX_RUN_SIM_S
        while vdce.now < deadline:
            settled = sum(s.admitted + sum(s.rejected.values())
                          for s in engine.admission.stats.values())
            completed = sum(s.completed
                            for s in engine.outcome.tenants.values())
            admitted = sum(s.admitted
                           for s in engine.admission.stats.values())
            if settled >= expected and completed >= admitted:
                break
            self.advance(vdce, vdce.now + STEP_S)
        engine.finalize()
        rejected_due = [App(due=float("nan"), rejected=True)
                        for _ in range(expected - len(rep.extra["backend"]
                                                      .runs))]
        rep.apps = [App(due=item.req.submit_time_s, run=item.run)
                    for item in rep.extra["backend"].runs] + rejected_due


class ChurnFederation(Workload):
    """Small applications over a federation under membership churn."""

    name = "churn_federation"
    period_s = 10.0
    standbys = ["h1", "h2"]

    def _plan(self, t0: float):
        from repro.faults import FaultPlan, HostCrash, LinkFlap, ServerCrash

        if self.smoke:
            flap, crash, server = 140.0, 160.0, 200.0
        else:
            flap, crash, server = 200.0, 300.0, 500.0
        return FaultPlan(events=(
            LinkFlap(site_a="site1", site_b="site2", at=t0 + flap,
                     down_s=15.0, up_s=15.0,
                     cycles=1 if self.smoke else 3),
            HostCrash(host="site0/h5", at=t0 + crash, recover_after=60.0),
            ServerCrash(site="site2", at=t0 + server),
        ))

    def setup(self, seed: int) -> Replication:
        from repro.workloads import wide_area_testbed

        vdce = wide_area_testbed(n_sites=4, hosts_per_site=8, seed=seed)
        vdce.start()
        vdce.enable_membership()
        for site in sorted(vdce.world.sites):
            vdce.enable_failover(site, list(self.standbys))
        vdce.apply_fault_plan(self._plan(vdce.now + WARM_UP_S))
        vdce.warm_up(WARM_UP_S)
        return Replication(self.name, seed, vdce)

    def _join(self, vdce) -> None:
        from repro.net.topology import T1_WAN
        from repro.resources.host import HostSpec
        from repro.workloads.environments import WORKSTATIONS

        specs = [HostSpec(name=f"h{i}", group=f"g{i // 4}",
                          **WORKSTATIONS[(8 + i) % len(WORKSTATIONS)])
                 for i in range(8)]
        vdce.site_join("site4", specs, links={"site3": T1_WAN})
        for spec in specs:
            vdce.attach_background_load(f"site4/{spec.name}",
                                        "random-walk", mean=0.4)

    def drive(self, rep: Replication) -> None:
        from repro.workloads.applications import linear_solver_graph

        vdce = rep.vdce
        t0 = rep.start_sim = vdce.now
        horizon_s = 300.0 if self.smoke else 1200.0
        last_arrival_s = horizon_s - 100.0
        join_s = 120.0
        joined = False
        k = 0
        step = 1
        while step * self.period_s <= last_arrival_s:
            due = t0 + step * self.period_s
            self.advance(vdce, due)
            if not joined and due - t0 >= join_s:
                self._join(vdce)
                joined = True
            site = self._next_site(vdce, k)
            k += 1
            graph = linear_solver_graph(vdce.registry, n=40,
                                        seed=rep.seed * 1000 + step,
                                        verify=True)
            _, run = vdce.submit(graph, site, k_remote_sites=1)
            rep.apps.append(App(due=due, run=run))
            step += 1
        self.advance(vdce, t0 + horizon_s)

    @staticmethod
    def _next_site(vdce, k: int) -> str:
        """Round-robin over sites whose server is up (a submit to a
        headless site would be a lost message, not a measurement)."""
        names = sorted(vdce.world.sites)
        for offset in range(len(names)):
            site = names[(k + offset) % len(names)]
            if vdce.world.sites[site].server_is_up():
                return site
        raise RuntimeError("every site server is down")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Dag2k, ReplayTrace, ChurnFederation)}


# -- outcome and correctness ---------------------------------------------------

@dataclass
class Outcome:
    """What one replication's run phase produced, checked."""

    tasks: int
    attempted: int
    failed_apps: int
    turnaround: list[float]
    problems: list[str]

    @property
    def p50(self) -> float:
        return nearest_rank(self.turnaround, 0.5) if self.turnaround \
            else float("nan")

    @property
    def tail(self) -> float:
        if not self.turnaround:
            return float("nan")
        return nearest_rank(self.turnaround,
                            tail_quantile(len(self.turnaround)))


def check(rep: Replication) -> Outcome:
    """Audit one replication; every problem found makes the run invalid.

    * each completed application has exactly one completion per node;
    * no simulated process died (``env.failed_processes == []``);
    * no task executed more often than its applications completed it;
    * replay: every arrival accounted for, zero DRF violations.
    """
    vdce = rep.vdce
    problems: list[str] = []
    turnaround: list[float] = []
    failed = tasks = 0
    for app in rep.apps:
        run = app.run
        if app.rejected or run is None or run.status != "completed":
            failed += 1
            continue
        if len(run.completions) != len(run.graph):
            failed += 1
            problems.append(
                f"{run.execution_id}: {len(run.completions)} completions "
                f"for {len(run.graph)} nodes")
            continue
        tasks += len(run.completions)
        turnaround.append(run.finished_at - app.due)
    if vdce.env.failed_processes:
        when, name, exc = vdce.env.failed_processes[0]
        problems.append(f"{len(vdce.env.failed_processes)} simulated "
                        f"processes died, first {name} at {when}: {exc!r}")
    finished = sum(len(app.run.completions) for app in rep.apps
                   if app.run is not None)
    executed = sum(ac.stats.tasks_executed
                   for ac in vdce.app_controllers.values())
    if executed > finished:
        problems.append(f"{executed} task executions for {finished} "
                        "completions (duplicated work)")
    engine = rep.extra.get("engine")
    if engine is not None:
        stats = engine.admission.stats
        arrivals = sum(s.arrivals for s in stats.values())
        admitted = sum(s.admitted for s in stats.values())
        rejected = sum(sum(s.rejected.values()) for s in stats.values())
        dispatched = sum(s.dispatched for s in engine.outcome.tenants.values())
        completed = sum(s.completed for s in engine.outcome.tenants.values())
        if arrivals != rep.extra["arrivals"] \
                or admitted + rejected != arrivals:
            problems.append(f"arrivals {rep.extra['arrivals']}: seen "
                            f"{arrivals}, admitted {admitted}, rejected "
                            f"{rejected}")
        if not admitted == dispatched == completed:
            problems.append(f"admitted {admitted}, dispatched {dispatched}, "
                            f"completed {completed}")
        if engine.outcome.drf_violations:
            problems.append(f"{engine.outcome.drf_violations} DRF "
                            "violations")
    if failed:
        problems.append(f"{failed} of {len(rep.apps)} applications failed")
    return Outcome(tasks=tasks, attempted=len(rep.apps), failed_apps=failed,
                   turnaround=turnaround, problems=problems)
