"""A5 — queue-aware scheduling (beyond-paper extension).

F4 shows the published Site Scheduler's weakness: the walk is
*queue-blind* for independent tasks of the same application — every ready
task sees the same predicted-fastest host, so wide shallow graphs pile up
on it.  The ``queue_aware=True`` extension tracks per-host committed work
during the walk and consults each site's ranked alternative hosts.

Expected shape: no change on chain-dominated graphs (there is no pile-up
to fix), a clear win on wide graphs, closing the gap to the spreading
baselines while keeping the prediction advantage.
"""

import numpy as np

from repro.scheduling import (
    HeftScheduler,
    HostSelector,
    RoundRobinScheduler,
    SiteScheduler,
)
from repro.workloads import (
    c3i_scenario_graph,
    fork_join_graph,
    fourier_pipeline_graph,
    linear_solver_graph,
    nynet_testbed,
)

from _common import print_table, realized_makespan

GRAPHS = {
    "linear-solver": lambda reg: linear_solver_graph(reg, n=200),
    "fourier-pipeline": lambda reg: fourier_pipeline_graph(reg, n=8192,
                                                           stages=4),
    "fork-join": lambda reg: fork_join_graph(reg, width=6, size=4096),
    "c3i": lambda reg: c3i_scenario_graph(reg, targets=200, steps=30),
}


def schedule(vdce, graph, queue_aware: bool):
    selectors = {site: HostSelector(repo)
                 for site, repo in vdce.repositories.items()}
    sched = SiteScheduler("syracuse", vdce.topology, k_remote_sites=1,
                          queue_aware=queue_aware)
    table, _ = sched.schedule_with_selectors(graph, selectors)
    return table


def test_queue_awareness_fixes_wide_graphs(benchmark):
    rows = []
    wins = {}
    for family, make in GRAPHS.items():
        paper, aware, rr, heft = [], [], [], []
        for seed in (1, 2, 3):
            vdce = nynet_testbed(seed=seed, hosts_per_site=4,
                                 with_loads=True)
            vdce.start()
            vdce.warm_up(40.0)
            graph = make(vdce.registry)
            paper.append(realized_makespan(
                vdce, graph, schedule(vdce, graph, queue_aware=False)))
            aware.append(realized_makespan(
                vdce, graph, schedule(vdce, graph, queue_aware=True)))
            rr.append(realized_makespan(
                vdce, graph,
                RoundRobinScheduler(vdce.repositories).schedule(graph)))
            heft.append(realized_makespan(
                vdce, graph,
                HeftScheduler(vdce.repositories,
                              vdce.topology).schedule(graph)))
        ratio = float(np.mean(paper)) / float(np.mean(aware))
        rows.append({
            "family": family,
            "paper_s": float(np.mean(paper)),
            "queue_aware_s": float(np.mean(aware)),
            "improvement": ratio,
            "round_robin_s": float(np.mean(rr)),
            "heft_s": float(np.mean(heft)),
        })
        wins[family] = ratio
    print_table("A5: queue-aware extension vs the paper's greedy walk "
                "(HEFT = the authors' 1999 successor)", rows)
    # HEFT and the queue-aware walk land in the same league (both are
    # EFT-based); neither is > 1.5x worse than the other on any family
    for row in rows:
        assert row["heft_s"] < row["queue_aware_s"] * 1.6
        assert row["queue_aware_s"] < row["heft_s"] * 1.6
    # wide shallow graphs improve noticeably ...
    assert wins["fork-join"] > 1.15 or wins["c3i"] > 1.15
    # ... and nothing gets meaningfully worse
    for family, ratio in wins.items():
        assert ratio > 0.97, family
    # queue-aware now also beats the spreading baseline on wide graphs
    for row in rows:
        if row["family"] in ("fork-join", "c3i"):
            assert row["queue_aware_s"] < row["round_robin_s"] * 1.05
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_queue_awareness_spreads_independent_tasks(benchmark):
    """Direct mechanism check: N independent identical tasks land on N
    distinct hosts instead of one."""
    from repro.afg import GraphBuilder
    vdce = nynet_testbed(seed=11, hosts_per_site=4, with_loads=False)
    vdce.start()
    b = GraphBuilder(vdce.registry, name="independent")
    for i in range(4):
        b.task("signal-generate", f"s{i}", input_size=4096,
               params={"n": 4096})
    graph = b.build()
    blind = schedule(vdce, graph, queue_aware=False)
    aware = schedule(vdce, graph, queue_aware=True)
    rows = [{"variant": "paper (queue-blind)",
             "distinct_hosts": len(blind.hosts())},
            {"variant": "queue-aware",
             "distinct_hosts": len(aware.hosts())}]
    print_table("A5: placement of 4 independent tasks", rows)
    assert len(blind.hosts()) == 1   # the published behaviour
    assert len(aware.hosts()) >= 3   # the extension spreads
    benchmark.pedantic(lambda: schedule(vdce, graph, True), rounds=3,
                       iterations=1)
