"""F4 — paper Figure 4: the Site Scheduler Algorithm.

Quantifies the algorithm the figure lists: communication-aware,
prediction-driven site assignment vs baselines, across DAG families, and
the effect of the neighbourhood size ``k`` (step 2's "select k nearest
VDCE neighbor sites").

Expected shape (the paper's implicit claims):
* the VDCE scheduler beats random / round-robin / reported-load-only
  placement on a loaded heterogeneous testbed;
* k > 0 helps when the local site is saturated (offload) and does not
  hurt when it is idle (transfer-time term keeps chains local);
* communication-heavy chains stay co-located.
"""

import numpy as np
import pytest

from repro.prediction import PerformancePredictor
from repro.scheduling import (
    HostSelector,
    MinLoadScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    SiteScheduler,
)
from repro.workloads import (
    c3i_scenario_graph,
    fork_join_graph,
    fourier_pipeline_graph,
    linear_solver_graph,
    nynet_testbed,
    wide_area_testbed,
)

from _common import print_table, realized_makespan


def loaded_testbed(seed: int):
    vdce = nynet_testbed(seed=seed, hosts_per_site=4, with_loads=True)
    vdce.start()
    vdce.warm_up(40.0)
    return vdce


def vdce_table(vdce, graph, k: int = 1, local: str = "syracuse",
               predictor_kwargs=None):
    selectors = {
        site: HostSelector(repo, predictor=PerformancePredictor(
            repo.task_performance, **(predictor_kwargs or {})))
        for site, repo in vdce.repositories.items()
    }
    table, _ = SiteScheduler(local, vdce.topology,
                             k_remote_sites=k).schedule_with_selectors(
        graph, selectors)
    return table


GRAPHS = {
    "linear-solver": lambda reg: linear_solver_graph(reg, n=200),
    "fourier-pipeline": lambda reg: fourier_pipeline_graph(reg, n=8192,
                                                           stages=4),
    "fork-join": lambda reg: fork_join_graph(reg, width=4, size=4096),
    "c3i": lambda reg: c3i_scenario_graph(reg, targets=200, steps=30),
}


def test_scheduler_vs_baselines(benchmark):
    """The headline comparison, geometric-mean over families and seeds."""
    ratios: dict[str, list[float]] = {}
    rows = []
    for family, make in GRAPHS.items():
        per_sched: dict[str, list[float]] = {}
        for seed in (1, 2, 3):
            vdce = loaded_testbed(seed)
            graph = make(vdce.registry)
            tables = {
                "vdce": vdce_table(vdce, graph, k=1),
                "random": RandomScheduler(
                    vdce.repositories,
                    np.random.default_rng(seed)).schedule(graph),
                "round-robin": RoundRobinScheduler(
                    vdce.repositories).schedule(graph),
                "min-load": MinLoadScheduler(
                    vdce.repositories).schedule(graph),
            }
            for name, table in tables.items():
                per_sched.setdefault(name, []).append(
                    realized_makespan(vdce, graph, table))
        means = {name: float(np.mean(vals))
                 for name, vals in per_sched.items()}
        row = {"family": family}
        row.update({name: means[name] / means["vdce"] for name in means})
        rows.append(row)
        for name, value in row.items():
            if name != "family":
                ratios.setdefault(name, []).append(value)
    print_table("F4: realized makespan relative to the VDCE scheduler "
                "(1.0 = VDCE; higher = slower)", rows,
                order=["family", "vdce", "min-load", "round-robin",
                       "random"])
    # Shape: the paper's scheduler wins clearly on deep/chain-dominated
    # graphs; on wide shallow graphs (fork-join, c3i) the greedy per-task
    # walk of Figure 4 can pile independent tasks onto the one
    # predicted-fastest host, so spreading baselines roughly tie there —
    # a real property of the paper's algorithm, recorded in
    # EXPERIMENTS.md.  No baseline may beat it by more than ~10%, and on
    # geometric mean across families VDCE must win.
    for row in rows:
        assert row["random"] > 0.90
        assert row["round-robin"] > 0.90
        assert row["min-load"] > 0.90
    for deep in ("linear-solver", "fourier-pipeline"):
        row = next(r for r in rows if r["family"] == deep)
        assert row["random"] > 1.3
    gmeans = {name: float(np.exp(np.mean(np.log(vals))))
              for name, vals in ratios.items()}
    assert gmeans["random"] > 1.2
    assert gmeans["min-load"] > 1.2
    benchmark.pedantic(lambda: vdce_table(loaded_testbed(1),
                                          GRAPHS["linear-solver"](
                                              loaded_testbed(1).registry)),
                       rounds=1, iterations=1)


def test_k_sweep_saturated_local_site(benchmark):
    """Offload benefit: with the local site saturated, growing k reduces
    realized makespan until the WAN transfer cost flattens it."""
    rows = []
    for k in (0, 1, 2, 3):
        vdce = wide_area_testbed(n_sites=4, hosts_per_site=3, seed=4,
                                 with_loads=False)
        vdce.start()
        for host in vdce.world.all_hosts():
            if host.site == "site0":
                host.true_load = 20.0
        vdce.warm_up(30.0)
        graph = linear_solver_graph(vdce.registry, n=200)
        table = vdce_table(vdce, graph, k=k, local="site0")
        rows.append({"k": k,
                     "makespan_s": realized_makespan(vdce, graph, table),
                     "remote_fraction": table.remote_fraction("site0")})
    print_table("F4: k-nearest-sites sweep (local site saturated)", rows)
    assert rows[0]["remote_fraction"] == 0.0
    assert rows[1]["makespan_s"] < rows[0]["makespan_s"] / 2
    assert all(r["remote_fraction"] > 0.5 for r in rows[1:])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_k_does_not_hurt_idle_local_site(benchmark):
    """With an idle local site, consulting remote sites must not degrade
    the schedule (the transfer-time term keeps work local)."""
    makespans = []
    for k in (0, 2):
        vdce = wide_area_testbed(n_sites=3, hosts_per_site=3, seed=6,
                                 with_loads=False)
        vdce.start()
        graph = fourier_pipeline_graph(vdce.registry, n=8192, stages=4)
        table = vdce_table(vdce, graph, k=k, local="site0")
        makespans.append(realized_makespan(vdce, graph, table))
    print_table("F4: idle local site", [
        {"k": 0, "makespan_s": makespans[0]},
        {"k": 2, "makespan_s": makespans[1]}])
    assert makespans[1] <= makespans[0] * 1.10
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_communication_heavy_chain_stays_colocated(benchmark):
    """Figure 4's design intent: 'schedule the application tasks within a
    site ... to decrease the inter-task communication time'."""
    vdce = nynet_testbed(seed=9, hosts_per_site=4, with_loads=False)
    vdce.start()
    graph = fourier_pipeline_graph(vdce.registry, n=200_000, stages=5)
    table = vdce_table(vdce, graph, k=1)
    sites = [table.get(nid).site for nid in graph.topological_order()]
    crossings = sum(1 for a, b in zip(sites, sites[1:]) if a != b)
    print_table("F4: co-location of a communication-heavy chain", [
        {"chain_length": len(sites), "site_crossings": crossings}])
    assert crossings <= 1
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
