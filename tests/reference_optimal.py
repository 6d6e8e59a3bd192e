"""Reference optimal schedule: every assignment enumerated, no pruning.

The differential oracle for :class:`~repro.scheduling.OptimalScheduler`.
It takes the reference's own candidate lists (``candidates_for``), tries
every combination, and scores each table with
:func:`~repro.scheduling.makespan.evaluate_schedule`, so it shares none
of the branch-and-bound's ordering, incremental timeline or pruning.
O(hosts^tasks) and guarded by *max_combinations*: tiny AFGs only.
"""

from __future__ import annotations

import itertools

from repro.afg.graph import ApplicationFlowGraph
from repro.net.topology import Topology
from repro.repository.site_repository import SiteRepository
from repro.scheduling import (
    AllocationEntry,
    OptimalScheduler,
    ResourceAllocationTable,
    evaluate_schedule,
)
from repro.util.errors import SchedulingError


def brute_force_search(
    graph: ApplicationFlowGraph,
    repositories: dict[str, SiteRepository],
    topology: Topology,
    max_combinations: int = 500_000,
) -> tuple[ResourceAllocationTable, float]:
    """Enumerate *every* assignment and return the best (no pruning)."""
    candidates = OptimalScheduler(repositories, topology).candidates_for(
        graph)
    node_ids = graph.topological_order()
    total = 1
    for nid in node_ids:
        total *= len(candidates[nid])
        if total > max_combinations:
            raise SchedulingError(
                f"brute force would enumerate > {max_combinations} "
                f"assignments for {graph.name!r}")
    best_table: ResourceAllocationTable | None = None
    best_makespan = float("inf")
    for combo in itertools.product(*(candidates[nid] for nid in node_ids)):
        table = ResourceAllocationTable(application=graph.name)
        for nid, (site, hosts, duration) in zip(node_ids, combo):
            table.assign(AllocationEntry(
                node_id=nid, task_name=graph.node(nid).task_name,
                site=site, hosts=hosts, predicted_time_s=duration,
                processors=len(hosts)))
        makespan = evaluate_schedule(graph, table, topology).makespan
        if makespan < best_makespan:
            best_makespan = makespan
            best_table = table
    if best_table is None:  # pragma: no cover - candidates never empty
        raise SchedulingError("brute force found no assignment")
    return best_table, best_makespan
