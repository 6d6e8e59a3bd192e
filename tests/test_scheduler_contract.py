"""The one scheduler contract, property-tested across the registry.

Every scheduler listed by :func:`available_schedulers` — site, HEFT,
the naive baselines, the branch-and-bound reference — must produce a
complete allocation that honours the repository's ground rules on any
federation: the task-constraints DB (executables only where installed),
per-task machine-type preferences, and host up/down status.  One
parametrized test, all schedulers, several seeded randomized scenarios.
The schedulers also share one scheduling view: they name the same
candidate hosts for every node, and HEFT and the optimal reference
price each (site, host, task class) once.
"""

from __future__ import annotations

import pytest

from repro.afg import GraphBuilder
from repro.prediction.predict import PerformancePredictor
from repro.scheduling import (
    BaselineScheduler,
    HeftScheduler,
    HostSelector,
    OptimalScheduler,
    ResourceAllocationTable,
    Scheduler,
    SchedulerContext,
    available_schedulers,
    create_scheduler,
    create_schedulers,
    register_scheduler,
)
from repro.util.errors import SchedulingError
from repro.util.rng import RngRegistry
from repro.workloads import random_layered_graph

from .conftest import build_federation

SEEDS = (11, 23, 47)

#: The schedulers ISSUE 6 requires at minimum; the registry may grow.
REQUIRED_SCHEDULERS = {"site", "heft", "random", "round-robin",
                       "min-load", "prediction-blind", "optimal"}


def make_scenario(registry, seed):
    """One seeded federation + AFG with all three contract hazards.

    Hazards: one host marked *down*, one task type constrained to a
    subset of hosts, one node carrying a machine-type preference.  The
    AFG stays small (7 tasks) so even the exhaustive reference runs in
    milliseconds.
    """
    n_sites = 2 + seed % 2
    sites = ("syracuse", "rome", "buffalo")[:n_sites]
    graph = random_layered_graph(registry, layers=2, width=2,
                                 size=512 * (1 + seed % 3), seed=seed)
    # constraint hazard: the sink's executable exists only at the
    # submitting site (both of its hosts stay up)
    allowed = {f"{sites[0]}/h0", f"{sites[0]}/h1"}
    fed = build_federation(site_names=sites, hosts_per_site=2, seed=seed,
                           registry=registry,
                           constrain={"power-spectrum": allowed})
    # up/down hazard: one remote host is down at schedule time
    down = f"{sites[1]}/h0"
    fed.repositories[sites[1]].resource_performance.mark_down(down,
                                                              time=0.0)
    # machine-type hazard: the fft node insists on an alpha host
    # (templates place an up alpha at {sites[0]}/h1)
    graph.node("fft").properties.machine_type = "alpha"
    return fed, graph, sites, down, allowed


def make_context(fed, sites, seed):
    return SchedulerContext(
        repositories=fed.repositories, topology=fed.topology,
        local_site=sites[0], k_remote_sites=len(sites) - 1,
        rng=RngRegistry(seed))


class TestSchedulerContract:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", available_schedulers())
    def test_allocation_honours_federation_ground_rules(self, registry,
                                                        name, seed):
        fed, graph, sites, down, allowed = make_scenario(registry, seed)
        scheduler = create_scheduler(name, make_context(fed, sites, seed))
        assert isinstance(scheduler, Scheduler)
        assert scheduler.name  # stable, non-empty identity
        table = scheduler.schedule(graph)
        assert isinstance(table, ResourceAllocationTable)
        # complete coverage: every task assigned exactly once
        assert len(table) == len(graph)
        for nid, node in graph.nodes.items():
            entry = table.get(nid)
            assert entry.site in sites
            assert entry.hosts, f"{name}: no hosts for {nid}"
            assert entry.processors == len(entry.hosts)
            repo = fed.repositories[entry.site]
            for host in entry.hosts:
                assert host.startswith(entry.site + "/"), \
                    f"{name}: host {host} outside site {entry.site}"
                record = repo.resource_performance.get(host)
                # up/down: never schedule onto a down host
                assert record.status == "up", \
                    f"{name}: placed {nid} on down host {host}"
                # constraints DB: executable must be installed there
                assert repo.task_constraints.is_runnable_on(
                    node.task_name, host), \
                    f"{name}: {nid} ({node.task_name}) not runnable " \
                    f"on {host}"
                # machine-type preference: architecture must match
                if node.properties.machine_type is not None:
                    assert record.arch == node.properties.machine_type, \
                        f"{name}: {nid} wants " \
                        f"{node.properties.machine_type}, got {record.arch}"
        # the hazards actually bit: the down host took nothing, and the
        # constrained sink landed inside its allowed set
        assert down not in table.hosts()
        assert set(table.get("sink").hosts) <= allowed


class TestOneSchedulingView:
    """Every scheduler reads one runnable-host rule and one pricing path."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_schedulers_name_the_same_candidate_hosts(self, registry, seed):
        fed, graph, sites, down, allowed = make_scenario(registry, seed)
        repos = fed.repositories
        heft = HeftScheduler(repos, fed.topology)
        optimal = OptimalScheduler(repos, fed.topology).candidates_for(graph)
        baseline = BaselineScheduler(repos)
        selectors = {site: HostSelector(repo) for site, repo in repos.items()}
        wants = {}
        for nid, node in graph.nodes.items():
            want = wants[nid] = sorted(
                rec.address for selector in selectors.values()
                for rec in selector.feasible_records(node))
            assert want and down not in want
            assert sorted(h for _s, h, _e in heft._candidates(node)) == want
            assert sorted(h for _s, hosts, _e in optimal[nid]
                          for h in hosts) == want
            assert sorted(r.address for r in baseline._feasible(node)) == want
        # the hazards bit: the constrained sink and the alpha-only fft
        assert set(wants["sink"]) <= allowed
        assert {repos[a.split("/")[0]].resource_performance.get(a).arch
                for a in wants["fft"]} == {"alpha"}

    @pytest.mark.parametrize("name", ["heft", "optimal"])
    def test_each_host_priced_once_per_task_class(self, registry,
                                                  monkeypatch, name):
        fed = build_federation(registry=registry, hosts_per_site=3)
        b = GraphBuilder(registry, name="repeated-class")
        for i in range(4):
            b.task("matrix-generate", f"gen{i}", input_size=50)
        graph = b.build()
        calls = {"estimate": 0, "predict": 0}
        for method in calls:
            original = getattr(PerformancePredictor, method)

            def counted(self, *args, _m=method, _f=original, **kwargs):
                calls[_m] += 1
                return _f(self, *args, **kwargs)

            monkeypatch.setattr(PerformancePredictor, method, counted)
        scheduler = create_scheduler(
            name, make_context(fed, ("syracuse", "rome"), seed=0))
        table = scheduler.schedule(graph)
        assert len(table) == len(graph)
        # one class, six hosts: one price per (site, host, class)
        assert calls == {"estimate": 6, "predict": 0}


class TestRegistry:
    def test_required_schedulers_registered(self):
        names = available_schedulers()
        assert names == sorted(names)
        assert REQUIRED_SCHEDULERS <= set(names)
        assert len(names) >= 6  # the ISSUE 6 floor

    def test_unknown_scheduler_rejected(self, registry):
        fed = build_federation(registry=registry)
        ctx = make_context(fed, ("syracuse", "rome"), seed=0)
        with pytest.raises(SchedulingError, match="unknown scheduler"):
            create_scheduler("annealing", ctx)

    def test_duplicate_registration_rejected(self):
        available_schedulers()  # force builtin registration
        with pytest.raises(SchedulingError, match="already registered"):
            register_scheduler("heft")(lambda ctx: None)

    def test_bad_slug_rejected(self):
        for bad in ("", "has space", "has/slash"):
            with pytest.raises(SchedulingError, match="slug"):
                register_scheduler(bad)

    def test_create_schedulers_builds_all(self, registry):
        fed = build_federation(registry=registry)
        ctx = make_context(fed, ("syracuse", "rome"), seed=0)
        built = create_schedulers(("heft", "random", "site"), ctx)
        assert set(built) == {"heft", "random", "site"}
        for scheduler in built.values():
            assert isinstance(scheduler, Scheduler)
