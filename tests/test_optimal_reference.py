"""Differential tests for the branch-and-bound optimal reference.

Three layers of evidence that :class:`OptimalScheduler` really is the
ground truth the bake-off gaps are measured against:

1. On tiny AFGs (<= 5-7 tasks, 4 hosts) branch-and-bound returns
   exactly the makespan brute-force enumeration finds — pruning never
   cuts the optimum.
2. The incremental makespan the search maintains equals what
   :func:`evaluate_schedule` computes for the returned table — the
   search's timeline IS the evaluator's.
3. The heuristics sit where they should: HEFT and the site scheduler
   within a small optimality gap, the random baseline strictly worse
   than optimal on every seed of a fixed set.
"""

from __future__ import annotations

import pytest

from repro.bakeoff import repository_predicted_durations
from repro.scheduling import (
    OptimalScheduler,
    SchedulerContext,
    create_scheduler,
)
from repro.scheduling.makespan import evaluate_schedule
from repro.util.errors import SchedulingError
from repro.util.rng import RngRegistry
from repro.workloads import fork_join_graph, fourier_pipeline_graph

from .conftest import build_federation
from .reference_optimal import brute_force_search

#: the bound HEFT/site must beat on these graphs (measured ~0.14 worst)
HEURISTIC_GAP_BOUND = 0.5
RANDOM_SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def small_federation(registry):
    # 2 sites x 2 hosts = 4 hosts: brute force stays enumerable
    return build_federation(hosts_per_site=2, registry=registry, seed=0)


def tiny_graphs(registry):
    return [fourier_pipeline_graph(registry, n=512, stages=1),  # 5 tasks
            fork_join_graph(registry, width=2, size=256)]       # 7 tasks


def predicted_makespan(graph, table, fed):
    """The common predicted objective (same as the bake-off scoring)."""
    return evaluate_schedule(
        graph, table, fed.topology,
        duration_fn=repository_predicted_durations(graph, table, fed)
    ).makespan


def context(fed, seed=0):
    return SchedulerContext(
        repositories=fed.repositories, topology=fed.topology,
        local_site="syracuse", k_remote_sites=1, rng=RngRegistry(seed))


class TestBranchAndBoundIsOptimal:
    def test_agrees_with_brute_force(self, registry, small_federation):
        fed = small_federation
        for graph in tiny_graphs(registry):
            reference = OptimalScheduler(fed.repositories, fed.topology)
            table, stats = reference.search(graph)
            _, brute_makespan = brute_force_search(
                graph, fed.repositories, fed.topology)
            assert stats.makespan_s == pytest.approx(brute_makespan,
                                                     rel=1e-12)
            assert stats.proven_optimal
            # pruning actually happened, yet the optimum survived
            assert stats.nodes_pruned > 0
            assert stats.nodes_explored < stats.candidates_total ** 2 * 100

    def test_search_makespan_matches_evaluator(self, registry,
                                               small_federation):
        """The search's incremental timeline is evaluate_schedule's:
        replaying the returned table yields the reported makespan."""
        fed = small_federation
        for graph in tiny_graphs(registry):
            table, stats = OptimalScheduler(
                fed.repositories, fed.topology).search(graph)
            replayed = evaluate_schedule(graph, table,
                                         fed.topology).makespan
            assert replayed == pytest.approx(stats.makespan_s, rel=1e-12)

    def test_node_budget_enforced(self, registry, small_federation):
        fed = small_federation
        graph = fork_join_graph(registry, width=2, size=256)
        tight = OptimalScheduler(fed.repositories, fed.topology,
                                 node_budget=3)
        with pytest.raises(SchedulingError, match="node budget"):
            tight.search(graph)

    def test_brute_force_combination_guard(self, registry,
                                           small_federation):
        fed = small_federation
        graph = fork_join_graph(registry, width=2, size=256)
        with pytest.raises(SchedulingError, match="enumerate"):
            brute_force_search(graph, fed.repositories, fed.topology,
                               max_combinations=10)


class TestHeuristicsAgainstOptimal:
    @pytest.mark.parametrize("name", ["heft", "site"])
    def test_heuristic_gap_within_bound(self, registry, small_federation,
                                        name):
        fed = small_federation
        for graph in tiny_graphs(registry):
            _, stats = OptimalScheduler(fed.repositories,
                                        fed.topology).search(graph)
            table = create_scheduler(name, context(fed)).schedule(graph)
            makespan = predicted_makespan(graph, table, fed)
            gap = makespan / stats.makespan_s - 1.0
            assert -1e-9 <= gap <= HEURISTIC_GAP_BOUND, \
                f"{name} gap {gap:.3f} out of bounds on {graph.name}"

    def test_random_strictly_worse_than_optimal(self, registry,
                                                small_federation):
        """On every seed of the fixed set, random placement loses to
        exhaustive search — the gap metric has real spread."""
        fed = small_federation
        for graph in tiny_graphs(registry):
            _, stats = OptimalScheduler(fed.repositories,
                                        fed.topology).search(graph)
            for seed in RANDOM_SEEDS:
                table = create_scheduler(
                    "random", context(fed, seed)).schedule(graph)
                makespan = predicted_makespan(graph, table, fed)
                assert makespan > stats.makespan_s, \
                    f"random (seed {seed}) matched optimal on {graph.name}"
