"""Branch-and-bound optimal reference scheduler for small AFGs.

The heuristics (site scheduler, HEFT, the baselines) can only be judged
against a known optimum.  This module searches the full assignment space
— every feasible (site, host) per task — for the allocation minimising
the **predicted schedule length** as evaluated by
:func:`repro.scheduling.makespan.evaluate_schedule`, i.e. exactly the
objective every registered scheduler is scored on in the bake-off.

The search walks tasks in the same fixed list-schedule order the
evaluator replays (the :class:`~repro.scheduling.levels.ReadySet`
priority order, which depends only on the graph), so the incremental
timeline maintained during the search *is* the evaluator's timeline and
the returned makespan is exact, not a bound.  Partial schedules are
pruned on an admissible lower bound: the current partial makespan, and
for every unscheduled task its earliest data-ready time plus the
cheapest-duration critical path to an exit node (communication and host
contention can only add to that).  A node budget guards against
accidental use on large graphs — exhaustive search is exponential and
meant for ground truth on ≲10-task AFGs (ISSUE/ROADMAP item 2;
cf. the FlexDAR branch-and-bound comparator in SNIPPETS.md Snippet 3).

The differential tests hold the branch-and-bound to an exhaustive
enumeration without pruning (``tests/reference_optimal.py``) on tiny
graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.afg.graph import ApplicationFlowGraph, TaskNode
from repro.net.topology import Topology
from repro.obs import OBS_OFF, Observability
from repro.repository.site_repository import SiteRepository
from repro.scheduling.allocation import (
    AllocationEntry,
    ResourceAllocationTable,
)
from repro.scheduling.host_selection import HostSelector
from repro.scheduling.levels import ReadySet, compute_levels
from repro.scheduling.registry import (
    SchedulerContext,
    register_scheduler,
)
from repro.util.errors import NoFeasibleHostError, SchedulingError

#: One assignment option for one task: (site, hosts, predicted seconds).
Candidate = tuple[str, tuple[str, ...], float]


@dataclass
class SearchStats:
    """Diagnostics of one branch-and-bound run."""

    tasks: int = 0
    candidates_total: int = 0
    nodes_explored: int = 0
    nodes_pruned: int = 0
    makespan_s: float = 0.0
    proven_optimal: bool = True


class OptimalScheduler:
    """Exhaustive (branch-and-bound) schedule-length minimiser.

    Same federation view as every other scheduler: candidates and
    predicted durations from one :class:`HostSelector` per site — no
    ground-truth peeking.
    ``node_budget`` bounds the number of partial schedules expanded; the
    search raises :class:`SchedulingError` when exceeded rather than
    silently returning a non-optimal table.
    """

    name = "optimal"

    def __init__(self, repositories: dict[str, SiteRepository],
                 topology: Topology,
                 node_budget: int = 2_000_000,
                 obs: Observability | None = None) -> None:
        if node_budget < 1:
            raise SchedulingError("node_budget must be >= 1")
        self.topology = topology
        self._selectors = {site: HostSelector(repo)
                           for site, repo in sorted(repositories.items())}
        self.node_budget = node_budget
        self.obs = obs if obs is not None else OBS_OFF

    # -- candidate generation ---------------------------------------------
    @staticmethod
    def _site_candidates(node: TaskNode, site: str,
                         selector: HostSelector) -> list[Candidate]:
        """Feasible candidates at one site (one per host; parallel tasks
        get the site's single best multi-host pick, like Figure 5)."""
        props = node.properties
        if props.computation_mode == "parallel" and props.processors > 1:
            try:
                gang = selector.select_ranked(node, 1)[0]
            except NoFeasibleHostError:
                return []  # the site offers no candidate
            return [(site, gang.hosts, gang.predicted_time_s)]
        return [(site, (addr,), est) for addr, est in selector.priced(node)]

    def candidates_for(self, graph: ApplicationFlowGraph
                       ) -> dict[str, list[Candidate]]:
        """Every task's feasible assignment options, deterministic order.

        An achievable site preference is honoured as a hard filter, the
        same policy the site scheduler applies.
        """
        out: dict[str, list[Candidate]] = {}
        for nid in graph.topological_order():
            node = graph.node(nid)
            per_site: dict[str, list[Candidate]] = {}
            for site, selector in self._selectors.items():
                cands = self._site_candidates(node, site, selector)
                if cands:
                    per_site[site] = cands
            preferred = node.properties.preferred_site
            if preferred is not None and preferred in per_site:
                per_site = {preferred: per_site[preferred]}
            options = [c for site in sorted(per_site)
                       for c in per_site[site]]
            if not options:
                raise NoFeasibleHostError(
                    f"optimal: no feasible host anywhere for {nid!r} "
                    f"({node.task_name})")
            # cheapest-duration first: good incumbents early
            options.sort(key=lambda c: (c[2], c[0], c[1]))
            out[nid] = options
        return out

    # -- the search -------------------------------------------------------
    def search(self, graph: ApplicationFlowGraph
               ) -> tuple[ResourceAllocationTable, SearchStats]:
        """Branch-and-bound over the full assignment space."""
        graph.validate()
        levels = compute_levels(graph)
        # The evaluator's fixed replay order (independent of assignment).
        order: list[str] = []
        ready = ReadySet(graph, levels)
        while ready:
            order.append(ready.pop())
        if len(order) != len(graph):
            raise SchedulingError("scheduling order missed nodes (cycle?)")
        candidates = self.candidates_for(graph)
        # Admissible tail bound: cheapest duration per task, propagated as
        # a min-duration critical path down to the exits.
        min_dur = {nid: min(c[2] for c in cands)
                   for nid, cands in candidates.items()}
        down_lb: dict[str, float] = {}
        for nid in reversed(graph.topological_order()):
            down_lb[nid] = min_dur[nid] + max(
                (down_lb[c] for c in graph.successors(nid)), default=0.0)
        parents = {nid: graph.predecessors(nid) for nid in order}
        out_bytes = {nid: graph.node(nid).output_bytes() for nid in order}

        stats = SearchStats(
            tasks=len(order),
            candidates_total=sum(len(c) for c in candidates.values()))
        best_makespan = float("inf")
        best_assignment: dict[str, Candidate] | None = None

        assignment: dict[str, Candidate] = {}
        finish: dict[str, float] = {}
        host_free: dict[str, float] = {}
        topology = self.topology

        def tail_bound(next_idx: int, makespan: float) -> float:
            bound = makespan
            for nid in order[next_idx:]:
                ready_lb = max((finish[p] for p in parents[nid]
                                if p in finish), default=0.0)
                lb = ready_lb + down_lb[nid]
                if lb > bound:
                    bound = lb
            return bound

        def descend(idx: int, makespan: float) -> None:
            nonlocal best_makespan, best_assignment
            if idx == len(order):
                if makespan < best_makespan:
                    best_makespan = makespan
                    best_assignment = dict(assignment)
                return
            nid = order[idx]
            for cand in candidates[nid]:
                stats.nodes_explored += 1
                if stats.nodes_explored > self.node_budget:
                    raise SchedulingError(
                        f"optimal: node budget {self.node_budget} "
                        f"exceeded on {graph.name!r} ({len(order)} tasks); "
                        f"reserve the optimal reference for small AFGs")
                site, hosts, duration = cand
                # replay exactly evaluate_schedule's arrival rule
                arrival = 0.0
                for p in parents[nid]:
                    p_site, p_hosts, _ = assignment[p]
                    if p_site != site:
                        t = topology.transfer_time(p_site, site,
                                                   out_bytes[p])
                    elif p_hosts[0] != hosts[0]:
                        t = topology.lan(site).transfer_time(out_bytes[p])
                    else:
                        t = 0.0
                    arrival = max(arrival, finish[p] + t)
                resource_free = max((host_free.get(h, 0.0) for h in hosts),
                                    default=0.0)
                start = max(arrival, resource_free)
                fin = start + duration
                new_makespan = max(makespan, fin)
                if tail_bound(idx + 1, new_makespan) >= best_makespan:
                    stats.nodes_pruned += 1
                    continue
                assignment[nid] = cand
                finish[nid] = fin
                saved = {h: host_free.get(h) for h in hosts}
                for h in hosts:
                    host_free[h] = fin
                descend(idx + 1, new_makespan)
                del assignment[nid]
                del finish[nid]
                for h, old in saved.items():
                    if old is None:
                        del host_free[h]
                    else:
                        host_free[h] = old

        descend(0, 0.0)
        if best_assignment is None:  # pragma: no cover - defensive
            raise SchedulingError("optimal: search found no assignment")
        stats.makespan_s = best_makespan
        table = _table_from_assignment(graph, best_assignment)
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter(
                "optimal_schedules_total",
                help="branch-and-bound reference schedules computed").inc()
            obs.metrics.counter(
                "optimal_nodes_explored_total",
                help="partial schedules expanded by branch-and-bound").inc(
                    float(stats.nodes_explored))
        return table, stats

    def schedule(self, graph: ApplicationFlowGraph
                 ) -> ResourceAllocationTable:
        """The registry contract: graph in, allocation table out."""
        table, _ = self.search(graph)
        return table


def _table_from_assignment(graph: ApplicationFlowGraph,
                           assignment: dict[str, Candidate]
                           ) -> ResourceAllocationTable:
    table = ResourceAllocationTable(application=graph.name)
    for nid in graph.topological_order():
        site, hosts, duration = assignment[nid]
        node = graph.node(nid)
        table.assign(AllocationEntry(
            node_id=nid, task_name=node.task_name, site=site,
            hosts=hosts, predicted_time_s=duration,
            processors=len(hosts)))
    return table


@register_scheduler("optimal")
def _optimal_factory(ctx: SchedulerContext) -> OptimalScheduler:
    return OptimalScheduler(ctx.repositories, ctx.topology, obs=ctx.obs)
