"""Reference Host Selection: paper Figure 5 re-walked from scratch.

:class:`~repro.scheduling.HostSelector` answers from persistent
per-task-class score views that consume the repository's delta journal.
This module is the differential oracle for those views.  Every call
reads the live repository through ``resource_performance.hosts_at`` and
prices every feasible host with ``PerformancePredictor.predict`` on a
fresh predictor, so it shares no state and no code with the selector's
view machinery (``_rebuild_view``, ``_apply_events``,
``feasible_records``).

The answers follow the selector's contract: hosts ascending by
(predicted time, address); a parallel task gets one choice holding its
``processors`` best hosts, timed by the slowest of them.

:func:`reference_reschedule` is the same kind of oracle for
:class:`~repro.scheduling.Rescheduler`: the per-request walk it replaced,
with a fresh predictor per site and ``best_host`` over the filtered
records.
"""

from __future__ import annotations

from repro.afg.graph import ApplicationFlowGraph, TaskNode
from repro.prediction.predict import PerformancePredictor
from repro.repository.site_repository import SiteRepository
from repro.scheduling import AllocationEntry, HostChoice, HostSelectionResult
from repro.util.errors import NoFeasibleHostError


def reference_ranked(repository: SiteRepository, node: TaskNode,
                     max_alternatives: int = 3,
                     predictor: PerformancePredictor | None = None
                     ) -> tuple[HostChoice, ...]:
    """The best hosts for *node* at the repository's site."""
    predictor = predictor or PerformancePredictor(
        repository.task_performance)
    site = repository.site
    props = node.properties
    processors = (props.processors
                  if props.computation_mode == "parallel" else 1)
    constraints = repository.task_constraints
    preds = sorted(
        (predictor.predict(node.definition, props.input_size, rec,
                           processors=processors)
         for rec in repository.resource_performance.hosts_at(site)
         if props.machine_type in (None, rec.arch)
         and constraints.is_runnable_on(node.task_name, rec.address)),
        key=lambda p: (p.estimate_s, p.host))
    if not preds or len(preds) < processors:
        raise NoFeasibleHostError(
            f"site {site!r}: task {node.node_id!r} needs {processors} "
            f"host(s), {len(preds)} feasible")
    if processors > 1:
        chosen = preds[:processors]
        return (HostChoice(
            node_id=node.node_id, site=site,
            hosts=tuple(p.host for p in chosen),
            predicted_time_s=max(p.estimate_s for p in chosen),
            processors=processors),)
    return tuple(
        HostChoice(node_id=node.node_id, site=site, hosts=(p.host,),
                   predicted_time_s=p.estimate_s)
        for p in preds[:max_alternatives])


def reference_select(repository: SiteRepository,
                     graph: ApplicationFlowGraph,
                     max_alternatives: int = 3) -> HostSelectionResult:
    """Whole-graph selection: :func:`reference_ranked` per task."""
    predictor = PerformancePredictor(repository.task_performance)
    choices: dict[str, HostChoice] = {}
    ranked: dict[str, tuple[HostChoice, ...]] = {}
    infeasible: list[str] = []
    for node_id in graph.topological_order():
        try:
            options = reference_ranked(repository, graph.node(node_id),
                                       max_alternatives, predictor)
        except NoFeasibleHostError:
            infeasible.append(node_id)
            continue
        choices[node_id] = options[0]
        ranked[node_id] = options
    return HostSelectionResult(site=repository.site, choices=choices,
                               infeasible=tuple(infeasible), ranked=ranked)


def reference_reschedule(repositories: dict[str, SiteRepository],
                         node: TaskNode, current: AllocationEntry,
                         exclude_hosts: set[str] | None = None,
                         exclude_sites: set[str] | None = None,
                         ) -> AllocationEntry:
    """Replacement allocation for *node*: every site re-walked cold."""
    exclude = set(exclude_hosts or ()) | set(current.hosts)
    skip_sites = exclude_sites or set()
    best: AllocationEntry | None = None
    for site, repo in sorted(repositories.items()):
        if site in skip_sites:
            continue
        predictor = PerformancePredictor(repo.task_performance)
        records = [
            rec for rec in repo.resource_performance.hosts_at(site)
            if rec.address not in exclude
            and repo.task_constraints.is_runnable_on(node.task_name,
                                                     rec.address)
            and (node.properties.machine_type is None
                 or rec.arch == node.properties.machine_type)
        ]
        if not records:
            continue
        try:
            pred = predictor.best_host(node.definition,
                                       node.properties.input_size,
                                       records)
        except NoFeasibleHostError:
            continue
        if best is None or pred.estimate_s < best.predicted_time_s:
            best = AllocationEntry(
                node_id=node.node_id, task_name=node.task_name,
                site=site, hosts=(pred.host,),
                predicted_time_s=pred.estimate_s)
    if best is None:
        raise NoFeasibleHostError(
            f"no replacement host for task {node.node_id!r} "
            f"(excluded: {sorted(exclude)})")
    return best
