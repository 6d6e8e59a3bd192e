"""A C3I surveillance pipeline over a loaded wide-area VDCE.

The paper's motivating domain (Rome Laboratory command-and-control): two
radar sensors feed track filters, the tracks are fused, threats ranked,
and an engagement plan produced.  The testbed hosts carry realistic
background time-sharing load, so the Application Scheduler's
load-forecasting actually matters; the workload visualization shows the
repository's view of the environment.

Run:  python examples/c3i_surveillance.py
"""

import numpy as np

from repro.obs import Observability
from repro.viz import ApplicationPerformanceView, WorkloadView
from repro.workloads import c3i_scenario_graph, nynet_testbed


def main() -> None:
    vdce = nynet_testbed(seed=3, hosts_per_site=4, with_loads=True,
                         obs=Observability())
    vdce.start()
    # let monitors populate the repositories with real measurements
    vdce.warm_up(30.0)

    print(WorkloadView(vdce.tracer).render())
    print()

    graph = c3i_scenario_graph(vdce.registry, targets=60, steps=25)
    run = vdce.run_application(graph, local_site="rome", k_remote_sites=1,
                               max_sim_time_s=3600)
    print(f"status   : {run.status}")
    print(f"makespan : {run.makespan:.2f}s "
          f"across sites {sorted(run.table.sites())}")
    print()
    print(ApplicationPerformanceView(run).render())

    plan = run.results()["plan"]["plan"]
    print("\nEngagement plan (track id -> battery, threat score):")
    for track_id, battery, score in plan:
        print(f"  track {int(track_id):3d} -> battery {int(battery)}  "
              f"(score {score:8.2f})")
    assert plan.shape[0] >= 1
    scores = plan[:, 2]
    assert (np.diff(scores) <= 1e-9).all(), "plan must be ranked"


if __name__ == "__main__":
    main()
