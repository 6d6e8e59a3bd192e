"""A1 — ablation of the prediction function's terms.

Paper section 2.2.1: "The core of the given built-in scheduling
algorithms is the performance prediction phase."  This experiment makes
that claim quantitative: schedule the same applications with each term of
Predict(task, R) disabled — the computing-power weight, the forecast
load, the memory penalty — and with everything disabled (base-time-only),
and report the realized-makespan degradation.
"""

import numpy as np

from repro.prediction import PerformancePredictor
from repro.scheduling import HostSelector, SiteScheduler
from repro.workloads import (
    c3i_scenario_graph,
    fourier_pipeline_graph,
    linear_solver_graph,
    nynet_testbed,
)

from _common import print_table

VARIANTS = {
    "full": {},
    "no-weight": {"use_weight": False},
    "no-load": {"use_load": False},
    "no-memory": {"use_memory": False},
    "base-time-only": {"use_weight": False, "use_load": False,
                       "use_memory": False},
}

GRAPHS = {
    "linear-solver": lambda reg: linear_solver_graph(reg, n=200),
    "fourier-pipeline": lambda reg: fourier_pipeline_graph(reg, n=8192,
                                                           stages=4),
    "c3i": lambda reg: c3i_scenario_graph(reg, targets=200, steps=30),
}


def schedule_with(vdce, graph, variant_kwargs):
    selectors = {
        site: HostSelector(repo, predictor=PerformancePredictor(
            repo.task_performance, **variant_kwargs))
        for site, repo in vdce.repositories.items()
    }
    table, _ = SiteScheduler("syracuse", vdce.topology,
                             k_remote_sites=1).schedule_with_selectors(
        graph, selectors)
    return table


def test_prediction_term_ablation(benchmark):
    from _common import realized_makespan
    per_variant: dict[str, list[float]] = {v: [] for v in VARIANTS}
    for family, make in GRAPHS.items():
        for seed in (1, 2, 3):
            vdce = nynet_testbed(seed=seed, hosts_per_site=4,
                                 with_loads=True)
            vdce.start()
            vdce.warm_up(40.0)
            graph = make(vdce.registry)
            full = realized_makespan(
                vdce, graph, schedule_with(vdce, graph, VARIANTS["full"]))
            for variant, kwargs in VARIANTS.items():
                table = schedule_with(vdce, graph, kwargs)
                per_variant[variant].append(
                    realized_makespan(vdce, graph, table) / full)
    rows = [{"variant": v,
             "gmean_slowdown": float(np.exp(np.mean(np.log(r)))),
             "worst_slowdown": float(np.max(r))}
            for v, r in per_variant.items()]
    print_table("A1: Predict(task, R) term ablation "
                "(realized makespan / full predictor)", rows)
    by = {r["variant"]: r for r in rows}
    assert by["full"]["gmean_slowdown"] == 1.0
    # removing the task-specific weight hurts on a heterogeneous testbed
    assert by["no-weight"]["gmean_slowdown"] > 1.1
    # removing everything hurts at least as much as the worst single term
    assert by["base-time-only"]["gmean_slowdown"] >= max(
        by["no-weight"]["gmean_slowdown"],
        by["no-load"]["gmean_slowdown"]) * 0.9
    # no single ablation *helps* on average
    for variant in ("no-weight", "no-load", "no-memory", "base-time-only"):
        assert by[variant]["gmean_slowdown"] >= 0.97
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_load_term_matters_under_imbalance(benchmark):
    """Targeted: idle vs saturated identical hosts — only the load term
    can tell them apart."""
    from _common import realized_makespan
    from repro import VDCE, ATM_OC3, HostSpec
    vdce = VDCE(seed=9)
    vdce.add_site("syracuse")
    vdce.add_site("rome")
    vdce.connect_sites("syracuse", "rome", ATM_OC3)
    for i in range(4):
        vdce.add_host("syracuse", HostSpec(name=f"h{i}"))
    vdce.add_host("rome", HostSpec(name="h0"))
    vdce.start()
    # saturate two of the four identical local hosts, plus the remote
    # host (which otherwise wins every tie-break for the blind variant)
    for addr in ("syracuse/h0", "syracuse/h1", "rome/h0"):
        vdce.world.host(addr).true_load = 10.0
    vdce.warm_up(30.0)
    graph = fourier_pipeline_graph(vdce.registry, n=8192, stages=4)
    with_load = realized_makespan(
        vdce, graph, schedule_with(vdce, graph, {}))
    without_load = realized_makespan(
        vdce, graph, schedule_with(vdce, graph, {"use_load": False}))
    print_table("A1: load term under imbalance", [
        {"variant": "with-load-term", "makespan_s": with_load},
        {"variant": "without-load-term", "makespan_s": without_load},
    ])
    assert with_load < without_load
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
