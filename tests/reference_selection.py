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
"""

from __future__ import annotations

from repro.afg.graph import ApplicationFlowGraph, TaskNode
from repro.prediction.predict import PerformancePredictor
from repro.repository.site_repository import SiteRepository
from repro.scheduling import HostChoice, HostSelectionResult
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
