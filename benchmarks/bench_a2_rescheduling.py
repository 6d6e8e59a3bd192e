"""A2 — dynamic rescheduling under load spikes.

Paper section 2.3.1: "If the current load on any of these machines is
more than a predefined threshold value, the Application Controller
terminates the task execution on the machine and sends a task
rescheduling request" — i.e. rescheduling maintains the application's
performance/QoS when the environment degrades mid-run.

The experiment injects a large load spike onto the host running the
critical LU task and measures completion time with rescheduling enabled
(threshold 3) vs effectively disabled (threshold 10^9), plus a threshold
sweep showing the trade-off (too low => thrashing, too high => riding
out the spike).
"""

import numpy as np

from repro.resources.loads import SpikeLoad
from repro.scheduling.rescheduling import ReschedulePolicy
from repro.workloads import linear_solver_graph, nynet_testbed

from _common import print_table


def run_with_spike(threshold: float, seed: int = 23, n: int = 200,
                   spike_load: float = 30.0):
    vdce = nynet_testbed(seed=seed, hosts_per_site=3, with_loads=False,
                         reschedule_policy=ReschedulePolicy(
                             load_threshold=threshold, max_attempts=3))
    vdce.start()
    graph = linear_solver_graph(vdce.registry, n=n)
    process, run = vdce.submit(graph, "syracuse", k_remote_sites=1)
    while run.table is None:
        vdce.env.run(until=vdce.now + 0.5)
    victim = vdce.world.host(run.table.get("lu").host)
    SpikeLoad(vdce.env, victim, spikes=[(vdce.now + 0.1, 10_000.0,
                                         spike_load)])
    deadline = vdce.now + 20_000
    while not process.triggered and vdce.now < deadline:
        vdce.env.run(until=vdce.now + 10.0)
    return vdce, run


def test_rescheduling_rescues_spiked_application(benchmark):
    rows = []
    for label, threshold in (("enabled (thr=3)", 3.0),
                             ("disabled (thr=1e9)", 1e9)):
        vdce, run = run_with_spike(threshold)
        assert run.status == "completed"
        rows.append({"rescheduling": label,
                     "makespan_s": run.makespan,
                     "reschedules": run.reschedules})
    print_table("A2: load spike on the LU host", rows,
                order=["rescheduling", "makespan_s", "reschedules"])
    enabled, disabled = rows
    assert enabled["reschedules"] >= 1
    assert disabled["reschedules"] == 0
    # with a 30x load spike, riding it out is far slower than moving
    assert enabled["makespan_s"] < disabled["makespan_s"] / 3
    benchmark.pedantic(run_with_spike, args=(3.0,),
                       kwargs={"n": 100}, rounds=1, iterations=1)


def test_threshold_sweep(benchmark):
    rows = []
    for threshold in (1.5, 3.0, 8.0, 1e9):
        vdce, run = run_with_spike(threshold, spike_load=6.0)
        assert run.status == "completed"
        rows.append({"threshold": threshold if threshold < 1e8 else "off",
                     "makespan_s": run.makespan,
                     "reschedules": run.reschedules})
    print_table("A2: rescheduling threshold sweep (6x spike)", rows)
    makespans = [r["makespan_s"] for r in rows]
    # any active threshold below the spike beats doing nothing
    assert min(makespans[:3]) < makespans[3]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_no_spike_no_rescheduling(benchmark):
    """The policy must not fire on a healthy run (no thrashing)."""
    vdce = nynet_testbed(seed=29, hosts_per_site=3, with_loads=False,
                         reschedule_policy=ReschedulePolicy(
                             load_threshold=3.0))
    vdce.start()
    graph = linear_solver_graph(vdce.registry, n=150)
    run = vdce.run_application(graph, "syracuse", k_remote_sites=1,
                               max_sim_time_s=3600)
    assert run.status == "completed"
    assert run.reschedules == 0
    print_table("A2: healthy-run control", [
        {"makespan_s": run.makespan, "reschedules": run.reschedules}])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
