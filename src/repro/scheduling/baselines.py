"""Baseline schedulers for the comparison benchmarks (F4/F5).

The paper offers no quantitative comparison; these baselines make its
qualitative claims testable.  Each implements the same contract as the
VDCE pipeline — AFG in, :class:`ResourceAllocationTable` out — but with
progressively less of the paper's machinery:

* :class:`RandomScheduler` — uniform random feasible host anywhere;
* :class:`RoundRobinScheduler` — cycle hosts in address order;
* :class:`MinLoadScheduler` — lowest *reported* CPU load, ignoring
  task-specific weights (classic load-balancer);
* prediction-blind VDCE — the real pipeline with a crippled predictor,
  built by passing ablation toggles to :class:`PerformancePredictor`;
* local-only VDCE — :class:`SiteScheduler` with ``k = 0``.

All baselines honour hard feasibility (task-constraints DB, up/down,
machine-type preference: :func:`~repro.scheduling.host_selection.runnable`)
— otherwise they would simply crash, not lose.
"""

from __future__ import annotations

import numpy as np

from repro.afg.graph import ApplicationFlowGraph, TaskNode
from repro.repository.resource_perf import ResourceRecord
from repro.repository.site_repository import SiteRepository
from repro.scheduling.allocation import (
    AllocationEntry,
    ResourceAllocationTable,
)
from repro.scheduling.host_selection import runnable
from repro.scheduling.registry import SchedulerContext, register_scheduler
from repro.util.errors import NoFeasibleHostError
from repro.util.rng import RngRegistry

#: The named stream every RandomScheduler draws from (repro.util.rng).
RANDOM_SCHEDULER_STREAM = "scheduler-random"


class BaselineScheduler:
    """Shared feasibility filtering over a federation of repositories."""

    name = "baseline"

    def __init__(self, repositories: dict[str, SiteRepository]) -> None:
        self.repositories = repositories

    def _feasible(self, node: TaskNode) -> list[ResourceRecord]:
        """All feasible (site, record) candidates across every site."""
        out = [rec for site, repo in sorted(self.repositories.items())
               for rec in repo.resource_performance.hosts_at(site)
               if runnable(repo, node, rec)]
        if not out:
            raise NoFeasibleHostError(
                f"no feasible host anywhere for {node.node_id!r} "
                f"({node.task_name})")
        return out

    def _needed(self, node: TaskNode) -> int:
        return (node.properties.processors
                if node.properties.computation_mode == "parallel" else 1)

    def _entry(self, node: TaskNode,
               records: list[ResourceRecord]) -> AllocationEntry:
        """Build an entry from chosen records (all must share a site)."""
        site = records[0].site
        # A rough predicted time (base * cpu_factor): baselines do not
        # have the paper's prediction machinery.
        node_cost = node.base_cost()
        predicted = node_cost * max(r.cpu_factor for r in records)
        return AllocationEntry(
            node_id=node.node_id, task_name=node.task_name, site=site,
            hosts=tuple(r.address for r in records),
            predicted_time_s=predicted, processors=len(records))

    def _pick_parallel_site(self, node: TaskNode,
                            records: list[ResourceRecord],
                            ) -> dict[str, list[ResourceRecord]]:
        """Group candidates per site holding >= needed hosts."""
        per_site: dict[str, list[ResourceRecord]] = {}
        for rec in records:
            per_site.setdefault(rec.site, []).append(rec)
        needed = self._needed(node)
        eligible = {s: rs for s, rs in per_site.items() if len(rs) >= needed}
        if not eligible:
            raise NoFeasibleHostError(
                f"no site has {needed} feasible hosts for {node.node_id!r}")
        return eligible

    def schedule(self, graph: ApplicationFlowGraph
                 ) -> ResourceAllocationTable:
        graph.validate()
        table = ResourceAllocationTable(application=graph.name)
        for node_id in graph.topological_order():
            node = graph.node(node_id)
            table.assign(self._choose(node))
        return table

    def _choose(self, node: TaskNode) -> AllocationEntry:
        raise NotImplementedError


class RandomScheduler(BaselineScheduler):
    """Uniform random feasible placement."""

    name = "random"

    def __init__(self, repositories: dict[str, SiteRepository],
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(repositories)
        # DET001: randomness always comes from a named repro.util.rng
        # stream, never module-level numpy state — a default-constructed
        # RandomScheduler is therefore byte-reproducible.
        self.rng = rng if rng is not None else RngRegistry(0).stream(
            RANDOM_SCHEDULER_STREAM)

    def _choose(self, node: TaskNode) -> AllocationEntry:
        records = self._feasible(node)
        needed = self._needed(node)
        if needed == 1:
            rec = records[int(self.rng.integers(len(records)))]
            return self._entry(node, [rec])
        eligible = self._pick_parallel_site(node, records)
        site = sorted(eligible)[int(self.rng.integers(len(eligible)))]
        pool = eligible[site]
        idx = self.rng.choice(len(pool), size=needed, replace=False)
        return self._entry(node, [pool[i] for i in sorted(idx)])


class RoundRobinScheduler(BaselineScheduler):
    """Deterministic cycle through hosts in address order."""

    name = "round-robin"

    def __init__(self, repositories: dict[str, SiteRepository]) -> None:
        super().__init__(repositories)
        self._cursor = 0

    def _choose(self, node: TaskNode) -> AllocationEntry:
        records = sorted(self._feasible(node), key=lambda r: r.address)
        needed = self._needed(node)
        if needed == 1:
            rec = records[self._cursor % len(records)]
            self._cursor += 1
            return self._entry(node, [rec])
        eligible = self._pick_parallel_site(node, records)
        sites = sorted(eligible)
        site = sites[self._cursor % len(sites)]
        self._cursor += 1
        pool = sorted(eligible[site], key=lambda r: r.address)
        return self._entry(node, pool[:needed])


class MinLoadScheduler(BaselineScheduler):
    """Lowest reported CPU load; ties broken by address.

    Load-aware but task-blind: it never consults computing-power weights,
    so a lightly-loaded slow machine beats a busy fast one even when the
    fast one would still win — the exact failure the paper's per-task
    prediction avoids.
    """

    name = "min-load"

    def _choose(self, node: TaskNode) -> AllocationEntry:
        records = self._feasible(node)
        needed = self._needed(node)
        if needed == 1:
            rec = min(records, key=lambda r: (r.cpu_load, r.address))
            return self._entry(node, [rec])
        eligible = self._pick_parallel_site(node, records)
        site = min(eligible, key=lambda s: (
            sum(r.cpu_load for r in eligible[s]) / len(eligible[s]), s))
        pool = sorted(eligible[site], key=lambda r: (r.cpu_load, r.address))
        return self._entry(node, pool[:needed])


@register_scheduler("random")
def _random_factory(ctx: SchedulerContext) -> RandomScheduler:
    return RandomScheduler(ctx.repositories,
                           rng=ctx.rng.stream(RANDOM_SCHEDULER_STREAM))


@register_scheduler("round-robin")
def _round_robin_factory(ctx: SchedulerContext) -> RoundRobinScheduler:
    return RoundRobinScheduler(ctx.repositories)


@register_scheduler("min-load")
def _min_load_factory(ctx: SchedulerContext) -> MinLoadScheduler:
    return MinLoadScheduler(ctx.repositories)
