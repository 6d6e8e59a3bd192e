"""Self-healing control plane: a site *server* crashes and a standby heals it.

The paper's Site Manager is a single point of failure per site — it owns
the repository, the allocation-table distribution, the start signal and
completion recording.  This demo arms `repro.recovery` (docs/recovery.md)
on the submitting site, kills the server machine mid-execution, and shows
the lowest-address live standby promote, replay the shipped write-ahead
log, re-push allocations, and drive the application to completion —
exactly once (task-execution counts equal graph size).

Run:  python examples/failover_demo.py
"""

from repro.faults import FaultPlan, ServerCrash
from repro.obs import Observability
from repro.workloads import linear_solver_graph, quiet_testbed


def failover_demo(n: int = 200) -> None:
    print("=== site-server failover ===")
    vdce = quiet_testbed(seed=7, obs=Observability())
    vdce.start()
    vdce.enable_failover("syracuse", ["h1", "h2"])
    site = vdce.world.site("syracuse")
    print(f"server role on : syracuse/{site.server_role_host or 'server'}"
          f" (standbys: h1, h2)")
    injector = vdce.apply_fault_plan(FaultPlan(events=(
        ServerCrash(site="syracuse", at=12.0),
    )))
    graph = linear_solver_graph(vdce.registry, n=n)
    process, run = vdce.submit(graph, "syracuse", k_remote_sites=1)
    while not process.triggered and vdce.now < 3600:
        vdce.env.run(until=vdce.now + 5.0)
    executed = sum(ac.stats.tasks_executed
                   for ac in vdce.app_controllers.values())
    assert vdce.recovery is not None
    print(f"status         : {run.status}")
    print(f"failovers      : {vdce.recovery.failovers}")
    print(f"role now on    : syracuse/{site.server_role_host}")
    print(f"tasks executed : {executed} for {len(graph)} nodes "
          f"(exactly once: {executed == len(graph)})")
    print(f"residual       : {run.results()['verify']['norm']:.2e}")
    print(f"fault log      : {injector.counts()}")
    promoted = list(vdce.tracer.query(category="sm:start-resent"))
    if promoted:
        print(f"start signal re-sent by the promoted server at "
              f"t={promoted[0].time:.1f}s")


if __name__ == "__main__":
    failover_demo()
