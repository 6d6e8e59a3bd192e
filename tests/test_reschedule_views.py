"""Reschedule answers from the score views equal the per-request re-walk.

:class:`~repro.scheduling.Rescheduler` answers from one long-lived
:class:`~repro.scheduling.HostSelector` per site (in a VDCE, the Site
Managers' own selectors).  The oracle is
:func:`tests.reference_selection.reference_reschedule`, which builds a
fresh predictor per site on every call and runs ``best_host`` over the
filtered records.  Seeded sequences interleave repository mutations —
monitoring updates, up/down flips, weight refinement from recorded
executions, host removal and re-registration, journal compaction and a
site's repository swapped for a copy — with reschedule requests for
sequential, parallel and machine-type-pinned nodes under random host and
site exclusions, and demand identical entries (exact floats) or the same
:class:`NoFeasibleHostError`.

The work-count tests pin what the views save: a catch-up prices each
dirtied host once, and a reschedule never builds a ``Prediction``.  A
started VDCE holds exactly one selector per site, its Site Manager's,
through start, failover promotion, join and leave.
"""

from __future__ import annotations

import copy

import pytest

from repro.afg import GraphBuilder
from repro.faults import FaultPlan, ServerCrash
from repro.net.topology import T1_WAN
from repro.prediction.predict import PerformancePredictor
from repro.resources.host import HostSpec
from repro.scheduling import AllocationEntry, HostSelector, Rescheduler
from repro.util.errors import NoFeasibleHostError
from repro.util.rng import RngRegistry
from repro.workloads import nynet_testbed, quiet_testbed

from .conftest import build_federation
from .reference_selection import reference_reschedule
from .test_incremental_scheduling import make_graph, spec_of

SITES = ("syracuse", "rome", "buffalo")


def mutate(repo, rng, removed: list[HostSpec], task_names, t: float):
    """One random mutation of *repo* (every kind a reschedule reads)."""
    rp = repo.resource_performance
    hosts = sorted(r.address for r in rp.all_records())
    addr = hosts[int(rng.integers(len(hosts)))]
    op = int(rng.integers(6))
    if op == 0:
        rp.update_dynamic(addr, cpu_load=float(rng.random()) * 20.0,
                          available_memory_mb=32.0 + float(rng.random()) * 96,
                          time=t)
    elif op == 1:
        if rp.get(addr).status == "up":
            rp.mark_down(addr, time=t)
        else:
            rp.mark_up(addr, time=t)
    elif op == 2:
        task = task_names[int(rng.integers(len(task_names)))]
        elapsed = 0.5 + float(rng.random()) * 4.0
        repo.task_performance.record_execution(
            task, addr, input_size=64.0, elapsed_s=elapsed, time=t,
            dedicated_elapsed_s=elapsed)
    elif op == 3 and len(hosts) > 2:
        removed.append(spec_of(rp.get(addr)))
        rp.unregister_host(addr)
    elif op == 4 and removed:
        rp.register_host(repo.site, removed.pop())
    else:
        # a burst of monitoring updates: with the small journal bound
        # below this compacts past the views' cursors
        for i in range(6):
            rp.update_dynamic(hosts[i % len(hosts)],
                              cpu_load=float(rng.random()) * 3.0,
                              available_memory_mb=64.0, time=t)


def random_request(fed, graph, rng):
    """A node, its current entry and random host / site exclusions."""
    nodes = sorted(graph.nodes)
    node = graph.node(nodes[int(rng.integers(len(nodes)))])
    addresses = sorted(a for repo in fed.repositories.values()
                       for a in (r.address for r in
                                 repo.resource_performance.all_records()))
    k = node.properties.processors \
        if node.properties.computation_mode == "parallel" else 1
    picks = rng.choice(len(addresses), size=k, replace=False)
    current_hosts = tuple(addresses[int(i)] for i in sorted(picks))
    current = AllocationEntry(
        node_id=node.node_id, task_name=node.task_name,
        site=current_hosts[0].split("/")[0], hosts=current_hosts,
        predicted_time_s=1.0, processors=k)
    n_exclude = int(rng.integers(len(addresses) + 1))
    exclude_hosts = {addresses[int(i)] for i in
                     rng.choice(len(addresses), size=n_exclude,
                                replace=False)}
    exclude_sites = {s for s in SITES if rng.random() < 0.2}
    return node, current, exclude_hosts, exclude_sites


def answer(fn, *args):
    try:
        return fn(*args)
    except NoFeasibleHostError:
        return NoFeasibleHostError


class TestRescheduleOracle:
    @pytest.mark.parametrize("seed", (5, 23, 41))
    def test_interleaved_mutations_match_the_rewalk(self, registry, seed):
        fed = build_federation(site_names=SITES, hosts_per_site=4,
                               registry=registry, seed=seed)
        graph = make_graph(registry, seed)
        tasks = sorted({graph.node(n).task_name for n in graph.nodes})
        for repo in fed.repositories.values():
            repo.delta.max_journal = 16
        selectors = {site: HostSelector(repo)
                     for site, repo in fed.repositories.items()}
        rescheduler = Rescheduler(selectors)
        rng = RngRegistry(seed).stream("reschedule-oracle")
        removed: dict[str, list[HostSpec]] = {s: [] for s in SITES}
        outcomes = set()
        for step in range(300):
            site = SITES[int(rng.integers(len(SITES)))]
            if rng.random() < 0.02:
                # a failover promotion: the site's entry now names a copy,
                # read through the promoted manager's new selector
                fed.repositories[site] = copy.deepcopy(
                    fed.repositories[site])
                selectors[site] = HostSelector(fed.repositories[site])
            for _ in range(int(rng.integers(3))):
                mutate(fed.repositories[site], rng, removed[site], tasks,
                       float(step + 1))
            for _ in range(int(rng.integers(1, 4))):
                request = random_request(fed, graph, rng)
                got = answer(rescheduler.reschedule, *request)
                want = answer(reference_reschedule, fed.repositories,
                              *request)
                assert got == want, f"step {step}: {request}"
                outcomes.add(got is NoFeasibleHostError)
        assert outcomes == {True, False}  # both verdicts exercised


def count_calls(monkeypatch, name: str) -> list[int]:
    """Count calls of one PerformancePredictor method."""
    calls = [0]
    original = getattr(PerformancePredictor, name)

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PerformancePredictor, name, counted)
    return calls


def lu_node(registry):
    b = GraphBuilder(registry, name="one")
    b.task("lu-decomposition", "lu", input_size=50)
    return b.graph.node("lu")


class TestViewWork:
    def test_catch_up_prices_each_dirtied_host_once(self, registry,
                                                    monkeypatch):
        fed = build_federation(registry=registry, hosts_per_site=6)
        repo = fed.repositories["syracuse"]
        node = lu_node(registry)
        selector = HostSelector(repo)
        selector.select_ranked(node)  # view built
        estimates = count_calls(monkeypatch, "estimate")
        rp = repo.resource_performance
        for i in range(5):
            rp.update_dynamic("syracuse/h2", cpu_load=0.1 * i,
                              available_memory_mb=64.0, time=float(i + 1))
        selector.select_ranked(node)
        assert estimates[0] == 1

    def test_reschedule_builds_no_prediction(self, registry, monkeypatch):
        fed = build_federation(registry=registry, hosts_per_site=4)
        node = lu_node(registry)
        current = AllocationEntry(
            node_id=node.node_id, task_name=node.task_name,
            site="syracuse", hosts=("syracuse/h0",), predicted_time_s=1.0)
        rescheduler = Rescheduler({site: HostSelector(repo)
                                   for site, repo in fed.repositories.items()})
        first = rescheduler.reschedule(node, current)
        calls = {name: count_calls(monkeypatch, name)
                 for name in ("estimate", "predict", "best_host")}
        assert rescheduler.reschedule(node, current) == first
        fed.repositories["rome"].resource_performance.update_dynamic(
            "rome/h1", cpu_load=0.5, available_memory_mb=64.0, time=1.0)
        second = rescheduler.reschedule(node, current)
        # one re-price: the dirtied host, in the one view that holds it
        assert {name: c[0] for name, c in calls.items()} == \
            {"estimate": 1, "predict": 0, "best_host": 0}
        assert second == reference_reschedule(fed.repositories, node,
                                               current)


def assert_one_selector_per_site(vdce):
    """Every site's entry is its live Site Manager's own selector."""
    assert sorted(vdce.selectors) == sorted(vdce.site_managers)
    for site, sm in vdce.site_managers.items():
        assert vdce.selectors[site] is sm.selector
        assert sm.selector.repository is vdce.repositories[site]


class TestOneSelectorPerSite:
    def test_start_shares_the_site_managers_selectors(self):
        vdce = quiet_testbed(seed=1)
        vdce.start()
        assert_one_selector_per_site(vdce)
        assert vdce.rescheduler.selectors is vdce.selectors

    def test_promotion_names_the_promoted_managers_selector(self):
        vdce = nynet_testbed(seed=3, hosts_per_site=8)
        vdce.start()
        vdce.enable_failover("syracuse", ["h1", "h2"])
        vdce.warm_up(10.0)
        before = vdce.selectors["syracuse"]
        vdce.apply_fault_plan(FaultPlan((
            ServerCrash("syracuse", at=vdce.now + 5.0),)))
        vdce.run(until=vdce.now + 40.0)
        assert vdce.recovery.failovers == 1
        assert vdce.selectors["syracuse"] is not before
        assert_one_selector_per_site(vdce)

    def test_join_adds_and_leave_removes_an_entry(self):
        vdce = quiet_testbed(seed=2)
        vdce.start()
        vdce.enable_membership()
        vdce.run(until=5.0)
        vdce.site_join("geneva", hosts=[
            HostSpec(name="h0", arch="x86", os="linux", cpu_factor=1.2,
                     memory_mb=64, group="g0")],
            links={"syracuse": T1_WAN, "rome": T1_WAN})
        assert "geneva" in vdce.selectors
        assert_one_selector_per_site(vdce)
        proc = vdce.site_leave("rome")
        while not proc.triggered and vdce.now < 120.0:
            vdce.run(until=vdce.now + 5.0)
        assert proc.triggered
        assert "rome" not in vdce.selectors
        assert_one_selector_per_site(vdce)
