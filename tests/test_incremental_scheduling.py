"""Differential tests: delta-aware host selection equals the full re-walk.

:class:`HostSelector` keeps per-task-class score views and consumes the
repository's :class:`DeltaTracker` journal between rounds.  The oracle
is :mod:`tests.reference_selection`, which re-walks every candidate
from scratch on each call.  These tests drive both through
randomized-but-seeded repository mutation sequences — monitoring
updates, up/down flips, weight refinements, constraint edits, host
removal and re-registration — and demand *identical* answers: the same
choices, the same (estimate, address) tie-breaks, the same ranked
alternatives, the same infeasibility verdicts, and exactly equal
predicted floats (both price hosts with the same Predict arithmetic).
"""

from __future__ import annotations

import pytest

from repro.afg import GraphBuilder
from repro.resources.host import HostSpec
from repro.scheduling import HostSelector
from repro.util.errors import NoFeasibleHostError
from repro.util.rng import RngRegistry
from repro.workloads import random_layered_graph

from .conftest import build_federation
from .reference_selection import reference_ranked, reference_select

SITE = "syracuse"


def make_graph(registry, seed):
    """A layered AFG exercising every equivalence-class axis."""
    graph = random_layered_graph(registry, layers=3, width=3, seed=seed)
    nodes = list(graph.nodes)
    parallel_capable = [n for n in nodes
                        if graph.node(n).definition.parallel_capable]
    assert parallel_capable, "fixture graph needs one parallel task"
    graph.node(parallel_capable[0]).properties.computation_mode = "parallel"
    graph.node(parallel_capable[0]).properties.processors = 2
    serial = next(n for n in nodes if n != parallel_capable[0])
    graph.node(serial).properties.machine_type = "sparc"
    return graph


def spec_of(rec) -> HostSpec:
    """Rebuild the registration spec from a live resource record."""
    return HostSpec(name=rec.host_name, group=rec.group, arch=rec.arch,
                    os=rec.os, cpu_factor=rec.cpu_factor,
                    memory_mb=rec.total_memory_mb)


def apply_op(repo, rng, removed_specs, task_names, round_no):
    """One random repository mutation (every delta-event kind)."""
    rp = repo.resource_performance
    hosts = sorted(r.address for r in rp.all_records())
    t = float(round_no + 1)
    op = int(rng.integers(7))
    if op == 0 and hosts:
        addr = hosts[int(rng.integers(len(hosts)))]
        rp.update_dynamic(addr, cpu_load=float(rng.random()) * 20.0,
                          available_memory_mb=64.0 + float(rng.random()) * 64,
                          time=t)
    elif op == 1 and hosts:
        addr = hosts[int(rng.integers(len(hosts)))]
        if rp.get(addr).status == "up":
            rp.mark_down(addr, time=t)
        else:
            rp.mark_up(addr, time=t)
    elif op == 2 and hosts:
        task = task_names[int(rng.integers(len(task_names)))]
        addr = hosts[int(rng.integers(len(hosts)))]
        repo.task_performance.set_weight(task, addr,
                                         0.5 + float(rng.random()))
    elif op == 3 and hosts:
        task = task_names[int(rng.integers(len(task_names)))]
        addr = hosts[int(rng.integers(len(hosts)))]
        constraints = repo.task_constraints
        if constraints.is_runnable_on(task, addr):
            constraints.unregister_executable(task, addr)
        else:
            constraints.register_executable(task, addr,
                                            f"/usr/vdce/bin/{task}")
    elif op == 4 and len(hosts) > 2:
        addr = hosts[int(rng.integers(len(hosts)))]
        removed_specs.append(spec_of(rp.get(addr)))
        rp.unregister_host(addr)
    elif op == 5 and removed_specs:
        rp.register_host(SITE, removed_specs.pop())
    elif hosts:
        # no-op re-stamp: same dynamic values, fresh version — must not
        # perturb either path
        rec = rp.get(hosts[int(rng.integers(len(hosts)))])
        rp.update_dynamic(rec.address, cpu_load=rec.cpu_load,
                          available_memory_mb=rec.available_memory_mb,
                          time=t)


def assert_same_selection(selector, graph):
    inc = selector.select(graph)
    full = reference_select(selector.repository, graph)
    assert inc.choices == full.choices
    assert inc.ranked == full.ranked
    assert inc.infeasible == full.infeasible


class TestDifferentialOracle:
    @pytest.mark.parametrize("seed", (3, 17, 29))
    def test_randomized_mutation_sequences_match(self, registry, seed):
        fed = build_federation(registry=registry, hosts_per_site=4,
                               seed=seed)
        repo = fed.repositories[SITE]
        graph = make_graph(registry, seed)
        selector = HostSelector(repo)
        rng = RngRegistry(seed).stream("mutations")
        removed_specs: list[HostSpec] = []
        tasks = sorted({graph.node(n).task_name for n in graph.nodes})
        assert_same_selection(selector, graph)
        for round_no in range(40):
            for _ in range(int(rng.integers(1, 4))):
                apply_op(repo, rng, removed_specs, tasks, round_no)
            assert_same_selection(selector, graph)

    def test_journal_compaction_forces_rebuild_and_matches(self, registry):
        fed = build_federation(registry=registry, hosts_per_site=4)
        repo = fed.repositories[SITE]
        graph = make_graph(registry, 1)
        selector = HostSelector(repo)
        assert_same_selection(selector, graph)
        # shrink the journal bound so the burst below compacts it past
        # every cursor the selector holds
        repo.delta.max_journal = 4
        hosts = sorted(r.address
                       for r in repo.resource_performance.all_records())
        for i in range(30):
            repo.resource_performance.update_dynamic(
                hosts[i % len(hosts)], cpu_load=0.3 * (i % 5),
                available_memory_mb=64.0, time=float(i + 1))
        assert repo.delta.events_since(0) is None  # cursor unrecoverable
        assert_same_selection(selector, graph)

    def test_compaction_racing_consumer_mid_rebuild(self, registry):
        """Mutations landing mid-rebuild must not be marked consumed.

        Compaction forces a full view rebuild; a monitoring update that
        lands inside the rebuild window — after the walk passed its host
        but before the cursor re-stamp — bumps the journal generation.
        Stamping the post-walk generation would mark that event consumed
        without the walk having seen it, leaving the view stale forever;
        the cursor must be captured before the walk so the next round
        replays the racing event.
        """
        fed = build_federation(registry=registry, hosts_per_site=4)
        repo = fed.repositories[SITE]
        graph = make_graph(registry, 1)
        selector = HostSelector(repo)
        assert_same_selection(selector, graph)  # views built
        repo.delta.max_journal = 4
        rp = repo.resource_performance
        hosts = sorted(r.address for r in rp.all_records())
        for i in range(30):  # compact past every cursor the views hold
            rp.update_dynamic(hosts[i % len(hosts)], cpu_load=0.3 * (i % 5),
                              available_memory_mb=64.0, time=float(i + 1))
        # make hosts[0] the worst candidate, so a stale view never picks
        # it — yet after the race it is the only host left alive
        rp.update_dynamic(hosts[0], cpu_load=19.0,
                          available_memory_mb=64.0, time=31.0)
        assert repo.delta.events_since(0) is None
        # arm the race: a forced rebuild of a multi-candidate view
        # completes its walk, then every other host dies before the
        # cursor is re-stamped (a single-candidate view — e.g. the
        # machine-type-pinned class — could never expose the staleness)
        real_rebuild = selector._rebuild_view
        fired = []

        def racing_rebuild(view, node, processors):
            real_rebuild(view, node, processors)
            if not fired and len(view.scores) > 1:
                fired.append(True)
                for addr in hosts[1:]:
                    rp.mark_down(addr, time=99.0)

        selector._rebuild_view = racing_rebuild
        selector.select(graph)  # rebuild happens; the race fires
        selector._rebuild_view = real_rebuild
        assert fired
        # next round: the racing mark_downs must reach every view — a
        # consumer that stamped the post-walk generation would still
        # propose the dead hosts here
        assert_same_selection(selector, graph)

    def test_infeasibility_parity_when_constraints_vanish(self, registry):
        fed = build_federation(registry=registry, hosts_per_site=3)
        repo = fed.repositories[SITE]
        b = GraphBuilder(registry, name="one")
        b.task("lu-decomposition", "lu", input_size=50)
        node = b.graph.node("lu")
        selector = HostSelector(repo)
        assert selector.select_for_task(node) \
            == reference_ranked(repo, node, 1)[0]
        constraints = repo.task_constraints
        for addr in sorted(constraints.hosts_with("lu-decomposition")):
            constraints.unregister_executable("lu-decomposition", addr)
        with pytest.raises(NoFeasibleHostError):
            selector.select_for_task(node)
        with pytest.raises(NoFeasibleHostError):
            reference_ranked(repo, node, 1)
        # executables come back: both paths recover the same answer
        for rec in repo.resource_performance.all_records():
            constraints.register_executable("lu-decomposition", rec.address,
                                            "/usr/vdce/bin/lu")
        assert selector.select_for_task(node) \
            == reference_ranked(repo, node, 1)[0]

    def test_host_removal_then_reregistration_matches(self, registry):
        fed = build_federation(registry=registry, hosts_per_site=4)
        repo = fed.repositories[SITE]
        b = GraphBuilder(registry, name="one")
        b.task("lu-decomposition", "lu", input_size=50)
        node = b.graph.node("lu")
        selector = HostSelector(repo)
        winner = selector.select_for_task(node).hosts[0]
        spec = spec_of(repo.resource_performance.get(winner))
        repo.resource_performance.unregister_host(winner)
        after = selector.select_for_task(node)
        assert after.hosts[0] != winner
        assert after == reference_ranked(repo, node, 1)[0]
        repo.resource_performance.register_host(SITE, spec)
        back = selector.select_for_task(node)
        assert back.hosts[0] == winner
        assert back == reference_ranked(repo, node, 1)[0]


class TestRankedCacheCoherence:
    def test_undisplacing_update_reuses_ranked_tuple(self, registry):
        """A load pile-up on a host outside every cached top list must
        leave the materialised ranking untouched (object-identical) —
        the displacement test that makes steady-state rounds O(dirty)."""
        fed = build_federation(registry=registry, hosts_per_site=6)
        repo = fed.repositories[SITE]
        b = GraphBuilder(registry, name="one")
        b.task("lu-decomposition", "lu", input_size=50)
        node = b.graph.node("lu")
        selector = HostSelector(repo)
        first = selector.select_ranked(node, max_alternatives=2)
        ranked_hosts = {c.hosts[0] for c in first}
        outside = [r.address
                   for r in repo.resource_performance.hosts_at(SITE)
                   if r.address not in ranked_hosts]
        assert outside, "fixture needs hosts beyond the top-2"
        repo.resource_performance.update_dynamic(
            outside[-1], cpu_load=50.0, available_memory_mb=8.0, time=1.0)
        assert selector.select_ranked(node, max_alternatives=2) is first

    def test_displacing_update_refreshes_ranking(self, registry):
        fed = build_federation(registry=registry, hosts_per_site=6)
        repo = fed.repositories[SITE]
        b = GraphBuilder(registry, name="one")
        b.task("lu-decomposition", "lu", input_size=50)
        node = b.graph.node("lu")
        selector = HostSelector(repo)
        first = selector.select_ranked(node, max_alternatives=2)
        # bury the current winner under load: it must drop out
        for _ in range(5):
            repo.resource_performance.update_dynamic(
                first[0].hosts[0], cpu_load=50.0,
                available_memory_mb=8.0, time=1.0)
        second = selector.select_ranked(node, max_alternatives=2)
        assert second[0].hosts != first[0].hosts
        assert second == reference_ranked(repo, node, 2)
