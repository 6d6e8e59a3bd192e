"""The chaos harness: one end-to-end VDCE run under a seeded fault plan.

Lives in the test tree (not ``repro.faults``) because it drives the full
pipeline via :mod:`repro.workloads`, which itself imports the facade —
the library side must stay import-cycle-free.

:func:`run_chaos` builds the two-site testbed, generates a
randomized-but-seeded :class:`~repro.faults.FaultPlan`, pins the solver
graph's tasks alternately across the two sites (so cross-host channels
and WAN traffic actually exist for faults to hit), and drives the run to
a terminal state.  :func:`assert_invariants` encodes the chaos contract:
the application completes correctly or ends in a typed state, no task is
silently lost, no daemon dies silently, and rescheduling converges.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.faults import FaultPlan
from repro.obs import Observability
from repro.obs.export import chrome_trace_json, trace_to_jsonl
from repro.util.errors import VDCEError
from repro.workloads import linear_solver_graph, quiet_testbed

#: terminal states a chaos run may legitimately end in
TERMINAL_STATUSES = ("completed", "timeout", "rejected")

#: convergence bound: a run that reschedules more than this is livelocked
MAX_RESCHEDULES = 50


@dataclasses.dataclass
class ChaosOutcome:
    """Everything a chaos invariant check (or a human) needs afterwards."""

    seed: int
    status: str
    error: str | None
    total_tasks: int
    completions: int
    reschedules: int
    makespan: float
    verify_norm: float | None
    fault_counts: dict[str, int]
    fault_log: str                      # canonical JSON, determinism probe
    plan: list[dict[str, Any]]          # the generated plan, serialised
    failed_processes: list[str]
    chrome_trace: str | None = None     # Chrome trace_event JSON (obs runs)
    trace: str | None = None            # flat trace log as JSONL (obs runs)
    failovers: int = 0                  # standby promotions that fired
    tasks_executed: int = 0             # runs-to-completion over all hosts
    ledger: str | None = None           # federation ledger (membership runs)


def group_leaders(vdce) -> set[str]:
    """Host addresses acting as group leaders (the failure detectors)."""
    leaders = set()
    for site in vdce.world.sites.values():
        for group in site.groups:
            leaders.add(f"{site.name}/{site.group_leader(group)}")
    return leaders


def crash_candidates(vdce) -> list[str]:
    """Hosts a chaos plan may crash: everything except group leaders.

    A dead leader silences its whole group's failure detection — a real
    deployment would re-elect; this reproduction does not, so crashing a
    leader turns lost tasks undetectable by design, not by bug.
    """
    leaders = group_leaders(vdce)
    return [h.address for h in vdce.world.all_hosts()
            if h.address not in leaders]


def run_chaos(seed: int, n: int = 200, horizon_s: float = 60.0,
              max_sim_time_s: float = 2000.0, obs: bool = False,
              failover_standbys: dict[str, list[str]] | None = None,
              plan: FaultPlan | None = None,
              min_sim_time_s: float = 0.0,
              membership: bool = False,
              **plan_kwargs) -> ChaosOutcome:
    """One seeded chaos run of the linear-solver pipeline.

    With ``obs=True`` the run carries a live :class:`Observability`
    handle and the outcome's ``chrome_trace`` holds the exported Chrome
    ``trace_event`` JSON — the artifact CI uploads, and the probe the
    determinism test compares byte-for-byte across same-seed runs —
    while ``trace`` holds the flat trace log as JSONL.

    *failover_standbys* (site name -> standby host names) enables the
    self-healing control plane before faults install, so plans may crash
    site servers; an explicit *plan* overrides the seeded random one.
    *min_sim_time_s* keeps the simulation running past application
    completion (failovers fire for planned faults landing afterwards —
    the control plane heals whether or not work is in flight).
    *membership* enables the federation heartbeat daemons, so link
    faults quarantine sites, degraded-mode scheduling re-queues their
    in-flight tasks, and the outcome carries the membership ``ledger``.
    """
    observability = Observability() if obs else None
    vdce = quiet_testbed(seed=seed, obs=observability)
    vdce.start()
    if membership:
        vdce.enable_membership()
    if failover_standbys:
        for site_name in sorted(failover_standbys):
            vdce.enable_failover(site_name,
                                 list(failover_standbys[site_name]))
    if plan is None:
        plan = FaultPlan.random(
            vdce.world.rng.stream("chaos-plan"), crash_candidates(vdce),
            sites=sorted(vdce.world.sites), horizon_s=horizon_s,
            **plan_kwargs)
    injector = vdce.apply_fault_plan(plan)
    graph = linear_solver_graph(vdce.registry, n=n)
    sites = sorted(vdce.world.sites)
    for i, nid in enumerate(graph.nodes):
        graph.node(nid).properties.preferred_site = sites[i % len(sites)]
    error = None
    run = None
    try:
        process, run = vdce.submit(graph, sites[0], k_remote_sites=1)
        deadline = vdce.now + max_sim_time_s
        while not process.triggered and vdce.now < deadline:
            vdce.env.run(until=vdce.now + 5.0)
        if process.triggered:
            if not process.ok:
                run.status = "rejected"
                raise process.exception
        else:
            run.status = "timeout"
    except VDCEError as exc:
        error = type(exc).__name__
    while vdce.now < min_sim_time_s:
        vdce.env.run(until=vdce.now + 5.0)
    results = run.results() if run is not None else {}
    norm = results.get("verify", {}).get("norm")
    return ChaosOutcome(
        seed=seed,
        status=run.status if run is not None else "rejected",
        error=error,
        total_tasks=len(graph),
        completions=len(run.completions) if run is not None else 0,
        reschedules=run.reschedules if run is not None else 0,
        makespan=run.makespan if run is not None else 0.0,
        verify_norm=norm,
        fault_counts=injector.counts(),
        fault_log=injector.log_json(),
        plan=plan.to_dicts(),
        failed_processes=[f"{name}: {exc!r}" for _, name, exc
                          in vdce.env.failed_processes],
        chrome_trace=(chrome_trace_json(observability.spans.spans,
                                        clock_end=vdce.now)
                      if observability is not None else None),
        trace=(trace_to_jsonl(observability.trace)
               if observability is not None else None),
        failovers=vdce.recovery.failovers if vdce.recovery else 0,
        tasks_executed=sum(ac.stats.tasks_executed
                           for ac in vdce.app_controllers.values()),
        ledger=(vdce.federation.ledger_json()
                if vdce.federation is not None else None),
    )


def assert_invariants(outcome: ChaosOutcome) -> None:
    """The chaos contract; raises AssertionError with the seed attached."""
    ctx = f"(seed {outcome.seed}, plan {outcome.plan})"
    assert outcome.failed_processes == [], \
        f"daemons crashed silently: {outcome.failed_processes} {ctx}"
    assert outcome.status in TERMINAL_STATUSES, \
        f"non-terminal status {outcome.status!r} {ctx}"
    assert outcome.reschedules <= MAX_RESCHEDULES, \
        f"rescheduling livelock: {outcome.reschedules} reschedules {ctx}"
    if outcome.status == "completed":
        assert outcome.completions == outcome.total_tasks, \
            (f"task silently lost: {outcome.completions}/"
             f"{outcome.total_tasks} completed {ctx}")
        assert outcome.makespan > 0, f"non-positive makespan {ctx}"
        if outcome.verify_norm is not None:
            assert outcome.verify_norm < 1e-8, \
                f"wrong result: residual {outcome.verify_norm} {ctx}"
    else:
        # a non-completed end state must be attributable: either a typed
        # error was raised or at least one fault was actually injected
        assert outcome.error is not None or outcome.fault_counts, \
            f"untyped, unexplained failure {ctx}"
