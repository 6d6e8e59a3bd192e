"""Programmatic experiment drivers.

Each driver reproduces one of the paper-figure experiments (see
EXPERIMENTS.md) as a library call returning an
:class:`ExperimentResult`, so downstream users can sweep parameters
without going through pytest.  The ``benchmarks/`` suite asserts the
shapes; these drivers produce the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.experiments.measures import format_table, realized_makespan
from repro.faults import FaultPlan, HostCrash
from repro.obs import Observability
from repro.prediction.predict import PerformancePredictor
from repro.scheduling.baselines import (
    MinLoadScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.scheduling.heft import HeftScheduler
from repro.scheduling.host_selection import HostSelector
from repro.scheduling.site_scheduler import SiteScheduler
from repro.workloads.applications import (
    c3i_scenario_graph,
    fork_join_graph,
    fourier_pipeline_graph,
    linear_solver_graph,
)
from repro.workloads.environments import nynet_testbed


@dataclass
class ExperimentResult:
    """Rows + metadata from one driver invocation."""

    name: str
    rows: list[dict[str, Any]]
    metadata: dict[str, Any] = field(default_factory=dict)

    def render(self, order: list[str] | None = None) -> str:
        """Aligned text table of the rows."""
        return format_table(self.name, self.rows, order=order)

    def column(self, key: str) -> list[Any]:
        """One column of the result rows."""
        return [row[key] for row in self.rows]


DEFAULT_FAMILIES = {
    "linear-solver": lambda reg: linear_solver_graph(reg, n=200),
    "fourier-pipeline": lambda reg: fourier_pipeline_graph(reg, n=8192,
                                                           stages=4),
    "fork-join": lambda reg: fork_join_graph(reg, width=4, size=4096),
    "c3i": lambda reg: c3i_scenario_graph(reg, targets=200, steps=30),
}


def _loaded_testbed(seed: int, hosts_per_site: int = 4):
    vdce = nynet_testbed(seed=seed, hosts_per_site=hosts_per_site,
                         with_loads=True)
    vdce.start()
    vdce.warm_up(40.0)
    return vdce


def _vdce_schedule(vdce, graph, k=1, queue_aware=False,
                   predictor_kwargs=None):
    selectors = {
        site: HostSelector(repo, predictor=PerformancePredictor(
            repo.task_performance, **(predictor_kwargs or {})))
        for site, repo in vdce.repositories.items()
    }
    sched = SiteScheduler("syracuse", vdce.topology, k_remote_sites=k,
                          queue_aware=queue_aware)
    table, _ = sched.schedule_with_selectors(graph, selectors)
    return table


def scheduler_comparison(seeds=(1, 2, 3), families=None,
                         hosts_per_site: int = 4) -> ExperimentResult:
    """F4/A5: realized makespan per scheduler, per DAG family."""
    families = families or DEFAULT_FAMILIES
    rows = []
    for family, make in families.items():
        samples: dict[str, list[float]] = {}
        for seed in seeds:
            vdce = _loaded_testbed(seed, hosts_per_site)
            graph = make(vdce.registry)
            tables = {
                "vdce": _vdce_schedule(vdce, graph),
                "vdce-queue-aware": _vdce_schedule(vdce, graph,
                                                   queue_aware=True),
                "min-load": MinLoadScheduler(
                    vdce.repositories).schedule(graph),
                "round-robin": RoundRobinScheduler(
                    vdce.repositories).schedule(graph),
                "random": RandomScheduler(
                    vdce.repositories,
                    np.random.default_rng(seed)).schedule(graph),
                "heft": HeftScheduler(
                    vdce.repositories, vdce.topology).schedule(graph),
            }
            for name, table in tables.items():
                samples.setdefault(name, []).append(
                    realized_makespan(vdce, graph, table))
        row: dict[str, Any] = {"family": family}
        row.update({name: float(np.mean(vals))
                    for name, vals in samples.items()})
        rows.append(row)
    return ExperimentResult(
        name="scheduler comparison (realized makespan, s)",
        rows=rows, metadata={"seeds": list(seeds),
                             "hosts_per_site": hosts_per_site})


def prediction_ablation(seeds=(1, 2, 3), families=None) -> ExperimentResult:
    """A1: makespan degradation per disabled Predict() term."""
    families = families or {
        k: v for k, v in DEFAULT_FAMILIES.items() if k != "fork-join"}
    variants = {
        "full": {},
        "no-weight": {"use_weight": False},
        "no-load": {"use_load": False},
        "no-memory": {"use_memory": False},
        "base-time-only": {"use_weight": False, "use_load": False,
                           "use_memory": False},
    }
    ratios: dict[str, list[float]] = {v: [] for v in variants}
    for family, make in families.items():
        for seed in seeds:
            vdce = _loaded_testbed(seed)
            graph = make(vdce.registry)
            full = realized_makespan(
                vdce, graph, _vdce_schedule(vdce, graph,
                                            predictor_kwargs={}))
            for variant, kwargs in variants.items():
                table = _vdce_schedule(vdce, graph,
                                       predictor_kwargs=kwargs)
                ratios[variant].append(
                    realized_makespan(vdce, graph, table) / full)
    rows = [{"variant": v,
             "gmean_slowdown": float(np.exp(np.mean(np.log(r)))),
             "worst_slowdown": float(np.max(r))}
            for v, r in ratios.items()]
    return ExperimentResult(
        name="Predict(task, R) term ablation (slowdown vs full)",
        rows=rows, metadata={"seeds": list(seeds)})


def monitoring_comparison(policies=("always", "threshold", "ci"),
                          duration_s: float = 120.0,
                          seed: int = 3) -> ExperimentResult:
    """F6: update traffic vs repository staleness per filter policy."""
    rows = []
    for policy in policies:
        vdce = nynet_testbed(seed=seed, hosts_per_site=4, with_loads=True,
                             filter_policy=policy)
        vdce.start()
        errors: list[float] = []

        def sampler(env, vdce=vdce, errors=errors):
            while True:
                yield env.timeout(1.0)
                for host in vdce.world.all_hosts():
                    rec = vdce.repositories[host.site] \
                        .resource_performance.get(host.address)
                    errors.append(abs(rec.cpu_load - host.cpu_load))

        vdce.env.process(sampler(vdce.env))
        vdce.run(until=duration_s)
        reports = sum(gm.stats.reports_received
                      for gm in vdce.group_managers.values())
        forwarded = sum(gm.stats.updates_forwarded
                        for gm in vdce.group_managers.values())
        rows.append({
            "policy": policy,
            "reports": reports,
            "forwarded": forwarded,
            "traffic_reduction": reports / max(forwarded, 1),
            "mean_staleness": float(np.mean(errors)),
        })
    return ExperimentResult(
        name="monitoring filter comparison",
        rows=rows, metadata={"duration_s": duration_s, "seed": seed})


def failure_detection_sweep(periods=(2.0, 5.0, 10.0),
                            seeds=(1, 2, 3)) -> ExperimentResult:
    """F6: failure-detection latency vs echo period."""
    rows = []
    for period in periods:
        latencies = []
        for seed in seeds:
            vdce = nynet_testbed(seed=seed, hosts_per_site=3,
                                 with_loads=False, echo_period_s=period,
                                 obs=Observability())
            vdce.start()
            crash_at = 7.0 + seed
            vdce.apply_fault_plan(
                FaultPlan((HostCrash("syracuse/h1", at=crash_at),)))
            vdce.run(until=crash_at + period * 4 + 5)
            downs = list(vdce.tracer.query(category="gm:host-down"))
            if downs:
                latencies.append(downs[0].time - crash_at)
        rows.append({"echo_period_s": period,
                     "detections": len(latencies),
                     "mean_latency_s": float(np.mean(latencies)),
                     "max_latency_s": float(np.max(latencies))})
    return ExperimentResult(name="failure-detection latency sweep",
                            rows=rows, metadata={"seeds": list(seeds)})
