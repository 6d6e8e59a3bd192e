"""The Site Scheduler Algorithm (paper Figure 4).

The Application Scheduler at the *local* site (where the execution
request arrived):

1.  receives the AFG from the local Application Editor;
2.  selects the ``k`` nearest VDCE neighbour sites;
3.  multicasts the AFG to them;
4-5. each site (local included) runs the Host Selection Algorithm and
    returns per-task (machine, predicted time) pairs;
6.  initialises the ready set with the entry nodes;
7.  walks the graph in ready order (highest level first — section 2.2's
    list-scheduling priority): entry tasks, or tasks needing no input
    file, go to the site minimising ``Predict``; other tasks go to the
    site minimising ``transfer_time(S_parent, S_j) * file_size +
    Predict(task, R_j)``; ties prefer the local site then the site name,
    so schedules are deterministic.

This module is the *algorithm*; the message-level multicast/gather is
performed by the Site Managers in :mod:`repro.runtime.control` and hands
the collected :class:`HostSelectionResult` objects to
:meth:`SiteScheduler.schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Any

from repro.afg.graph import ApplicationFlowGraph
from repro.net.topology import Topology
from repro.obs import OBS_OFF, Observability
from repro.prediction.predict import PerformancePredictor
from repro.scheduling.allocation import AllocationEntry, ResourceAllocationTable
from repro.scheduling.host_selection import (
    HostChoice,
    HostSelectionResult,
    HostSelector,
)
from repro.scheduling.levels import ReadySet, compute_levels
from repro.scheduling.registry import SchedulerContext, register_scheduler
from repro.util.errors import NoFeasibleHostError, SchedulingError


@dataclass
class ScheduleReport:
    """Diagnostics accompanying a resource allocation table."""

    application: str
    local_site: str
    consulted_sites: list[str]
    levels: dict[str, float] = field(default_factory=dict)
    scheduling_order: list[str] = field(default_factory=list)
    per_task_candidates: dict[str, dict[str, float]] = field(
        default_factory=dict)  # node -> site -> total predicted time


class SiteScheduler:
    """Figure 4, parameterised by the neighbourhood size ``k``.

    ``queue_aware=True`` enables a beyond-paper extension: an
    earliest-finish-time walk.  For every candidate host (each site's
    ranked alternatives) it computes ``max(data-ready time, host-free
    time) + Predict`` and assigns the minimiser, updating the host-free
    clock — so independent tasks spread across hosts while chain tasks
    still co-locate (a child never contends with its own parent).  The
    published algorithm is queue-blind — independent tasks of the same
    application all see the same "best" host — which the F4 benchmark
    shows costs it on wide shallow graphs; A5 quantifies the fix.
    """

    def __init__(self, local_site: str, topology: Topology,
                 k_remote_sites: int = 2, queue_aware: bool = False,
                 obs: Observability | None = None,
                 diagnostics: bool = True,
                 site_filter: Any = None) -> None:
        if k_remote_sites < 0:
            raise SchedulingError("k_remote_sites must be >= 0")
        self.local_site = local_site
        self.topology = topology
        self.k = k_remote_sites
        self.queue_aware = queue_aware
        self.obs = obs if obs is not None else OBS_OFF
        #: populate ScheduleReport's order/candidate maps; rescheduling
        #: hot loops turn this off — assignments are unaffected
        self.diagnostics = diagnostics
        #: degraded-mode predicate ``site -> bool`` (the federation
        #: membership view): sites it rejects are never consulted, even
        #: while momentarily reachable mid-flap.  None = every
        #: topology-reachable site is eligible.
        self.site_filter = site_filter

    # -- step 2: neighbour selection ---------------------------------------
    def select_remote_sites(self) -> list[str]:
        """The k nearest usable neighbour sites (step 2), by WAN latency.

        ``neighbors_by_latency`` already excludes sites with no
        surviving WAN path; the membership ``site_filter`` additionally
        excludes quarantined sites, *before* the k-truncation — so a
        quarantined nearest neighbour costs nothing from the
        neighbourhood budget.
        """
        ranked = self.topology.neighbors_by_latency(self.local_site)
        if self.site_filter is not None:
            ranked = [site for site in ranked if self.site_filter(site)]
        return ranked[:self.k]

    # -- steps 6-7: the assignment walk -------------------------------------
    def schedule(
        self,
        graph: ApplicationFlowGraph,
        selection_results: dict[str, HostSelectionResult],
        levels: dict[str, float] | None = None,
        revalidate: bool = True,
    ) -> tuple[ResourceAllocationTable, ScheduleReport]:
        """Assign every task to a site/host given per-site selections.

        *selection_results* maps site name to that site's Host Selection
        output; it must include the local site.  Pass *levels* when the
        priority listing is already in hand (e.g. computed for an earlier
        round over the same graph) to skip recomputing it, and
        ``revalidate=False`` when the graph was already validated (same
        rescheduling-loop reuse).
        """
        if self.local_site not in selection_results:
            raise SchedulingError(
                f"selection results missing the local site "
                f"{self.local_site!r}")
        if revalidate:
            graph.validate()
        if levels is None:
            levels = compute_levels(graph)
        table = ResourceAllocationTable(application=graph.name)
        report = ScheduleReport(
            application=graph.name, local_site=self.local_site,
            consulted_sites=sorted(selection_results), levels=levels)

        ready = ReadySet(graph, levels)
        # earliest-finish-time state for the queue-aware extension
        eft: dict[str, dict[str, float]] | None = (
            {"host_free": {}, "finish": {}} if self.queue_aware else None)
        diagnostics = self.diagnostics
        while ready:
            node_id = ready.pop()
            if diagnostics:
                report.scheduling_order.append(node_id)
            node = graph.node(node_id)
            entry = self._assign(graph, node_id, selection_results, table,
                                 report, eft)
            if diagnostics and node.properties.preferred_site is not None \
                    and entry.site != node.properties.preferred_site:
                # Preference is soft in the paper ("optional preferences");
                # record that it could not be honoured.
                report.per_task_candidates.setdefault(node_id, {})[
                    "_preference_unmet"] = 1.0
            table.assign(entry)
        if len(table) != len(graph):
            raise SchedulingError(
                "scheduling walk did not cover every node (cycle?)")
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter(
                "sched_walks_total",
                help="site-scheduler walks completed").inc(
                    site=self.local_site)
            obs.metrics.counter(
                "sched_tasks_placed_total",
                help="tasks placed by the site scheduler").inc(
                    float(len(table)), site=self.local_site)
        return table, report

    def _assign(self, graph: ApplicationFlowGraph, node_id: str,
                results: dict[str, HostSelectionResult],
                table: ResourceAllocationTable,
                report: ScheduleReport,
                eft: dict[str, dict[str, float]] | None = None
                ) -> AllocationEntry:
        node = graph.node(node_id)
        parents = graph.predecessors(node_id)
        preferred = node.properties.preferred_site
        # candidate key: (site, choice); the paper considers one choice
        # per site, the queue-aware extension also weighs alternatives.
        candidates: list[tuple[float, float, HostChoice, str]] = []
        diagnostics = self.diagnostics
        site_best: dict[str, float] = {}
        for site, result in results.items():
            options = (result.ranked_for(node_id) if self.queue_aware
                       else tuple(c for c in (result.choice_for(node_id),)
                                  if c is not None))
            if not options:
                continue
            if preferred is not None and site != preferred and \
                    preferred in results and \
                    results[preferred].choice_for(node_id) is not None:
                # honour an achievable preference as a hard filter
                continue
            transfer = self._transfer_time(graph, parents, site, table)
            for choice in options:
                if eft is not None:
                    # earliest finish: data-ready vs host-free, whichever
                    # is later, plus the predicted execution time
                    ready = max(
                        (eft["finish"][p]
                         + (0.0 if table.get(p).site == site else
                            self.topology.transfer_time(
                                table.get(p).site, site,
                                graph.node(p).output_bytes()))
                         for p in parents), default=0.0)
                    free = max((eft["host_free"].get(h, 0.0)
                                for h in choice.hosts), default=0.0)
                    total = max(ready, free) + choice.predicted_time_s
                else:
                    total = transfer + choice.predicted_time_s
                candidates.append((total, transfer, choice, site))
                if diagnostics:
                    site_best[site] = min(site_best.get(site, float("inf")),
                                          total)
        if diagnostics:
            report.per_task_candidates[node_id] = dict(site_best)
        if not candidates:
            raise NoFeasibleHostError(
                f"no consulted site can run task {node_id!r} "
                f"({node.task_name})")
        total, transfer, choice, best_site = min(
            candidates,
            key=lambda c: (c[0], c[3] != self.local_site, c[3],
                           c[2].hosts))
        if eft is not None:
            eft["finish"][node_id] = total
            for host in choice.hosts:
                eft["host_free"][host] = total
        return AllocationEntry(
            node_id=node_id, task_name=node.task_name, site=best_site,
            hosts=choice.hosts, predicted_time_s=choice.predicted_time_s,
            predicted_transfer_s=transfer,
            processors=choice.processors)

    def _transfer_time(self, graph: ApplicationFlowGraph,
                       parents: list[str], site: str,
                       table: ResourceAllocationTable) -> float:
        """Input-file transfer cost into *site* from the parents' sites.

        Entry tasks (no parents) need no input file: zero (Figure 4's
        first branch).  Same-site parents contribute zero ("If the site
        is the same as the parent site, then the total inter-task
        transfer time will be zero").
        """
        total = 0.0
        for parent in parents:
            parent_entry = table.get(parent)  # parents always scheduled first
            if parent_entry.site == site:
                continue
            size = graph.node(parent).output_bytes()
            total += self.topology.transfer_time(parent_entry.site, site,
                                                 size)
        return total

    # -- convenience: run selection + walk in-process -------------------------
    def schedule_with_selectors(
        self,
        graph: ApplicationFlowGraph,
        selectors: dict[str, HostSelector],
        levels: dict[str, float] | None = None,
        order: list[str] | None = None,
        revalidate: bool = True,
    ) -> tuple[ResourceAllocationTable, ScheduleReport]:
        """Steps 2-7 without the messaging layer (used by tests/benches).

        *selectors* maps site name to that site's HostSelector; the local
        site must be present.  Only the local site plus the k nearest
        neighbours are consulted, matching the multicast of step 3.
        *levels*, *order*, and ``revalidate=False`` let rescheduling
        loops over an unchanged graph reuse the derived structure.
        """
        if self.local_site not in selectors:
            raise SchedulingError("selectors must include the local site")
        consulted = [self.local_site] + [
            s for s in self.select_remote_sites() if s in selectors]
        results = {site: selectors[site].select(graph, order=order)
                   for site in consulted}
        return self.schedule(graph, results, levels=levels,
                             revalidate=revalidate)


class FederatedSiteScheduler:
    """Registry adapter: the whole VDCE pipeline as a one-call scheduler.

    Builds a per-site :class:`HostSelector` federation (Figure 5) and
    runs the :class:`SiteScheduler` walk (Figure 4) in-process, so the
    paper's algorithm satisfies the same ``schedule(graph) -> table``
    contract as every baseline.  ``predictor_kwargs`` forwards ablation
    toggles to :class:`~repro.prediction.predict.PerformancePredictor`
    — the ``prediction-blind`` registration cripples every Predict term,
    isolating the value of the prediction machinery itself.
    """

    def __init__(self, ctx: SchedulerContext, name: str = "site",
                 queue_aware: bool = False,
                 k_remote_sites: int | None = None,
                 predictor_kwargs: dict[str, Any] | None = None) -> None:
        self.name = name
        self.repositories = ctx.repositories
        self._selectors = {
            site: HostSelector(repo, predictor=PerformancePredictor(
                repo.task_performance, **(predictor_kwargs or {})))
            for site, repo in sorted(ctx.repositories.items())
        }
        k = ctx.k_remote_sites if k_remote_sites is None else k_remote_sites
        self._scheduler = SiteScheduler(
            ctx.local_site, ctx.topology, k_remote_sites=k,
            queue_aware=queue_aware, obs=ctx.obs,
            site_filter=ctx.site_filter)
        self.last_report: ScheduleReport | None = None

    def schedule(self, graph: ApplicationFlowGraph
                 ) -> ResourceAllocationTable:
        table, report = self._scheduler.schedule_with_selectors(
            graph, self._selectors)
        self.last_report = report
        return table


@register_scheduler("site")
def _site_factory(ctx: SchedulerContext) -> FederatedSiteScheduler:
    return FederatedSiteScheduler(ctx, name="site")


@register_scheduler("site-queue-aware")
def _site_queue_aware_factory(ctx: SchedulerContext
                              ) -> FederatedSiteScheduler:
    return FederatedSiteScheduler(ctx, name="site-queue-aware",
                                  queue_aware=True)


@register_scheduler("site-local")
def _site_local_factory(ctx: SchedulerContext) -> FederatedSiteScheduler:
    """The k=0 ablation: never consult a remote site."""
    return FederatedSiteScheduler(ctx, name="site-local", k_remote_sites=0)


@register_scheduler("prediction-blind")
def _prediction_blind_factory(ctx: SchedulerContext
                              ) -> FederatedSiteScheduler:
    """The pipeline with every Predict(task, R) term disabled."""
    return FederatedSiteScheduler(
        ctx, name="prediction-blind",
        predictor_kwargs={"use_weight": False, "use_load": False,
                          "use_memory": False})
