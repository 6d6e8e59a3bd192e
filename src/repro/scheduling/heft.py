"""HEFT: Heterogeneous Earliest Finish Time.

A fitting comparator: HEFT was published two years later by the same
first author (Topcuoglu, Hariri, Wu, "Performance-effective and
low-complexity task scheduling for heterogeneous computing", 1999-2002).
Including it shows where the VDCE prototype's scheduler sat relative to
the line of work it led to.

HEFT differs from the paper's site scheduler in two ways:

1. priority = *upward rank*: mean computation cost across hosts plus the
   maximum over children of (mean communication cost + child rank) —
   versus VDCE's base-processor-only levels;
2. assignment = earliest finish time with *insertion*: a task may fill an
   idle gap between two already-scheduled tasks on a host.

This implementation runs against the same repository view as every other
scheduler: each site's candidates and predicted times come from one
:class:`~repro.scheduling.host_selection.HostSelector` per site
(``Predict``; no ground-truth peeking).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.afg.graph import ApplicationFlowGraph, TaskNode
from repro.net.topology import Topology
from repro.obs import OBS_OFF, Observability
from repro.repository.site_repository import SiteRepository
from repro.scheduling.allocation import (
    AllocationEntry,
    ResourceAllocationTable,
)
from repro.scheduling.host_selection import HostSelector
from repro.scheduling.registry import SchedulerContext, register_scheduler
from repro.util.errors import NoFeasibleHostError


@dataclass
class _HostSchedule:
    """Occupied intervals on one host, kept sorted by start time."""

    intervals: list[tuple[float, float]] = field(default_factory=list)

    def earliest_slot(self, ready: float, duration: float) -> float:
        """Earliest start >= ready fitting *duration* (with insertion)."""
        start = ready
        for s, f in self.intervals:
            if start + duration <= s:
                break  # fits in the gap before this interval
            start = max(start, f)
        return start

    def occupy(self, start: float, finish: float) -> None:
        self.intervals.append((start, finish))
        self.intervals.sort()


class HeftScheduler:
    """HEFT over the federation's repository view."""

    name = "heft"

    def __init__(self, repositories: dict[str, SiteRepository],
                 topology: Topology,
                 obs: Observability | None = None) -> None:
        self.repositories = repositories
        self.topology = topology
        self._selectors = {site: HostSelector(repo)
                           for site, repo in sorted(repositories.items())}
        self.obs = obs if obs is not None else OBS_OFF

    # -- candidate costs ------------------------------------------------------
    def _candidates(self, node: TaskNode) -> list[tuple[str, str, float]]:
        """(site, host, predicted_time) for every runnable host."""
        out = [(site, addr, est)
               for site, selector in self._selectors.items()
               for addr, est in selector.priced(node)]
        if not out:
            raise NoFeasibleHostError(
                f"HEFT: no feasible host for {node.node_id!r}")
        return out

    def _mean_comm(self, graph: ApplicationFlowGraph, src: str) -> float:
        """Average inter-site transfer cost of src's output."""
        size = graph.node(src).output_bytes()
        sites = sorted(self.repositories)
        if len(sites) < 2:
            return self.topology.lan(sites[0]).transfer_time(size)
        costs = [self.topology.transfer_time(a, b, size)
                 for i, a in enumerate(sites) for b in sites[i + 1:]]
        return sum(costs) / len(costs)

    # -- upward ranks ----------------------------------------------------------
    def upward_ranks(self, graph: ApplicationFlowGraph,
                     costs: dict[str, list[tuple[str, str, float]]]
                     ) -> dict[str, float]:
        mean_cost = {nid: sum(c for _s, _h, c in cands) / len(cands)
                     for nid, cands in costs.items()}
        ranks: dict[str, float] = {}
        for nid in reversed(graph.topological_order()):
            child_term = max(
                (self._mean_comm(graph, nid) + ranks[c]
                 for c in graph.successors(nid)), default=0.0)
            ranks[nid] = mean_cost[nid] + child_term
        return ranks

    # -- the algorithm -------------------------------------------------------------
    def schedule(self, graph: ApplicationFlowGraph
                 ) -> ResourceAllocationTable:
        graph.validate()
        costs = {nid: self._candidates(graph.node(nid))
                 for nid in graph.nodes}
        ranks = self.upward_ranks(graph, costs)
        order = sorted(graph.nodes, key=lambda nid: (-ranks[nid], nid))
        table = ResourceAllocationTable(application=graph.name)
        host_sched: dict[str, _HostSchedule] = {}
        finish: dict[str, float] = {}
        placed_site: dict[str, str] = {}
        for nid in order:
            node = graph.node(nid)
            # (eft, est, site, host, duration)
            best: tuple[float, float, str, str, float] | None = None
            for site, host, duration in costs[nid]:
                ready = 0.0
                for parent in graph.predecessors(nid):
                    comm = 0.0
                    if placed_site[parent] != site:
                        comm = self.topology.transfer_time(
                            placed_site[parent], site,
                            graph.node(parent).output_bytes())
                    ready = max(ready, finish[parent] + comm)
                sched = host_sched.setdefault(host, _HostSchedule())
                est = sched.earliest_slot(ready, duration)
                eft = est + duration
                if best is None or (eft, host) < (best[0], best[3]):
                    best = (eft, est, site, host, duration)
            assert best is not None
            eft, est, site, host, duration = best
            host_sched[host].occupy(est, eft)
            finish[nid] = eft
            placed_site[nid] = site
            table.assign(AllocationEntry(
                node_id=nid, task_name=node.task_name, site=site,
                hosts=(host,), predicted_time_s=duration))
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter(
                "heft_schedules_total",
                help="HEFT schedules computed").inc()
            obs.metrics.counter(
                "heft_tasks_placed_total",
                help="tasks placed by HEFT").inc(float(len(table)))
        return table


@register_scheduler("heft")
def _heft_factory(ctx: SchedulerContext) -> HeftScheduler:
    return HeftScheduler(ctx.repositories, ctx.topology, obs=ctx.obs)
