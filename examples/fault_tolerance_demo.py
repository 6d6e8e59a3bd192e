"""Fault tolerance: a host crashes mid-execution and VDCE recovers.

Demonstrates the paper's Resource Controller fault path end to end:
Monitor daemons stop answering echo packets -> the Group Manager marks
the host "down" and informs the Site Manager -> the repository excludes
the host -> the facade reroutes the lost tasks, and the application still
completes (section 2.3.1).

Also demonstrates overload-triggered dynamic rescheduling: a load spike
above the QoS threshold makes the Application Controller terminate the
running task and request a new placement.

Run:  python examples/fault_tolerance_demo.py
"""

from repro.faults import FaultPlan, HostCrash
from repro.obs import Observability
from repro.resources.loads import SpikeLoad
from repro.scheduling.rescheduling import ReschedulePolicy
from repro.workloads import linear_solver_graph, nynet_testbed


def crash_demo(n: int = 150) -> None:
    print("=== host-crash recovery ===")
    vdce = nynet_testbed(seed=21, hosts_per_site=3, with_loads=False,
                         reschedule_policy=ReschedulePolicy(
                             load_threshold=3.0),
                         obs=Observability())
    vdce.start()
    graph = linear_solver_graph(vdce.registry, n=n)
    process, run = vdce.submit(graph, "syracuse", k_remote_sites=1)
    while run.table is None:
        vdce.env.run(until=vdce.now + 1.0)
    victim = run.table.get("lu").host
    print(f"LU scheduled on {victim}; crashing it now...")
    injector = vdce.apply_fault_plan(FaultPlan(events=(
        HostCrash(host=victim, at=vdce.now + 0.05),
    )))
    while not process.triggered and vdce.now < 3600:
        vdce.env.run(until=vdce.now + 5.0)
    print(f"status      : {run.status}")
    print(f"reschedules : {run.reschedules}")
    print(f"LU ended on : {run.table.get('lu').host} "
          f"(victim was {victim})")
    print(f"fault log   : {injector.counts()}")
    detections = [r for r in vdce.tracer.query(category="gm:host-down")]
    print(f"failure detected by group manager at t={detections[0].time:.1f}s"
          if detections else "failure not detected?!")


def overload_demo(n: int = 150) -> None:
    print("\n=== overload-triggered rescheduling ===")
    vdce = nynet_testbed(seed=22, hosts_per_site=3, with_loads=False,
                         reschedule_policy=ReschedulePolicy(
                             load_threshold=3.0),
                         obs=Observability())
    vdce.start()
    graph = linear_solver_graph(vdce.registry, n=n)
    process, run = vdce.submit(graph, "syracuse", k_remote_sites=1)
    while run.table is None:
        vdce.env.run(until=vdce.now + 1.0)
    busy = vdce.world.host(run.table.get("lu").host)
    print(f"LU scheduled on {busy.address}; spiking its load to 50...")
    SpikeLoad(vdce.env, busy, spikes=[(vdce.now + 0.05, 600.0, 50.0)])
    while not process.triggered and vdce.now < 3600:
        vdce.env.run(until=vdce.now + 5.0)
    terminations = vdce.tracer.count("task-terminated")
    print(f"status            : {run.status}")
    print(f"terminated tasks  : {terminations}")
    print(f"reschedules       : {run.reschedules}")
    print(f"residual ||Ax-b|| : {run.results()['verify']['norm']:.2e}")


if __name__ == "__main__":
    crash_demo()
    overload_demo()
