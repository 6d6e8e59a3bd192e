"""Capacity planning: how much hardware does an application need?

A practical tool the paper's QoS framework implies but never ships: given
an application and a deadline, find the smallest site (host count) whose
*predicted* schedule length meets the deadline — using exactly the
admission-time machinery (`Predict` + the site walk + the schedule-length
evaluator), so the plan is consistent with what the scheduler will later
decide.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.afg.graph import ApplicationFlowGraph
from repro.net.topology import Topology
from repro.prediction.calibration import provision_site
from repro.repository.site_repository import SiteRepository
from repro.resources.groundtruth import ExecutionModel
from repro.resources.host import Host, HostSpec
from repro.scheduling.host_selection import HostSelector
from repro.scheduling.makespan import predicted_schedule_length
from repro.scheduling.site_scheduler import SiteScheduler
from repro.util.errors import ConfigurationError, NoFeasibleHostError


@dataclass(frozen=True)
class CapacityPlan:
    """Outcome of one planning sweep."""

    deadline_s: float
    hosts_needed: int | None        # None: even max_hosts missed it
    predicted_s: float | None       # schedule length at hosts_needed
    sweep: tuple[tuple[int, float], ...]  # (hosts, predicted) pairs

    @property
    def feasible(self) -> bool:
        return self.hosts_needed is not None


def _predicted_at(graph: ApplicationFlowGraph, n_hosts: int,
                  template: dict, seed: int,
                  queue_aware: bool) -> float:
    topology = Topology()
    topology.add_site("plan")
    repo = SiteRepository("plan")
    hosts = [Host(spec=HostSpec(name=f"h{i}", **template), site="plan")
             for i in range(n_hosts)]
    provision_site(repo, hosts, graph_definitions(graph),
                   ExecutionModel(seed=seed))
    scheduler = SiteScheduler("plan", topology, k_remote_sites=0,
                              queue_aware=queue_aware)
    table, _ = scheduler.schedule_with_selectors(
        graph, {"plan": HostSelector(repo)})
    return predicted_schedule_length(graph, table, topology)


def graph_definitions(graph: ApplicationFlowGraph):
    """Unique task definitions appearing in *graph*."""
    seen = {}
    for node in graph.nodes.values():
        seen[node.task_name] = node.definition
    return list(seen.values())


def capacity_plan(graph: ApplicationFlowGraph, deadline_s: float,
                  max_hosts: int = 16,
                  template: dict | None = None,
                  seed: int = 0,
                  queue_aware: bool = True) -> CapacityPlan:
    """Smallest homogeneous site meeting *deadline_s* for *graph*.

    Sweeps host counts 1..max_hosts (stopping at the first success);
    defaults to the queue-aware walk because a capacity question is
    precisely about spreading the application's own parallelism.
    """
    if not deadline_s > 0:  # NaN-safe: NaN fails it too
        raise ConfigurationError("deadline must be positive")
    if max_hosts < 1:
        raise ConfigurationError("max_hosts must be >= 1")
    template = template or dict(arch="sparc", os="solaris",
                                cpu_factor=1.0, memory_mb=256)
    sweep: list[tuple[int, float]] = []
    needed: int | None = None
    predicted_at_needed: float | None = None
    for n in range(1, max_hosts + 1):
        try:
            predicted = _predicted_at(graph, n, template, seed, queue_aware)
        except NoFeasibleHostError:
            continue
        sweep.append((n, predicted))
        if predicted <= deadline_s:
            needed = n
            predicted_at_needed = predicted
            break
    return CapacityPlan(deadline_s=deadline_s, hosts_needed=needed,
                        predicted_s=predicted_at_needed,
                        sweep=tuple(sweep))
