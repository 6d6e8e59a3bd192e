"""Membership state machine: units, elasticity, and seeded properties.

The property suite (satellite of the elastic-membership PR) drives
randomized-but-seeded federations through link partitions, elastic
joins, and drained leaves while applications run, and asserts the
robustness contract: no execution is ever stranded (every run reaches a
terminal state, completed runs account for every task exactly once) and
the membership ledger is byte-identical across same-seed runs.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, LinkDown
from repro.federation.membership import HEARTBEAT_PERIOD_S, SUSPECT_AFTER_S
from repro.net import SERVER_HEARTBEAT
from repro.net.topology import T1_WAN
from repro.resources.host import HostSpec
from repro.util.errors import ConfigurationError
from repro.workloads import (
    linear_solver_graph,
    quiet_testbed,
    wide_area_testbed,
)


class TestMembershipConfig:
    def test_defaults_are_valid(self):
        # the silence horizon must outlast at least one beat period
        assert SUSPECT_AFTER_S > HEARTBEAT_PERIOD_S > 0


class TestDaemonStateMachine:
    def build(self, seed: int = 0):
        vdce = quiet_testbed(seed=seed)
        vdce.start()
        fed = vdce.enable_membership()
        return vdce, fed

    def test_steady_state_stays_member(self):
        vdce, fed = self.build()
        vdce.run(until=30.0)
        for observer in ("syracuse", "rome"):
            assert fed.daemon(observer).usable_sites() == \
                [p for p in ("syracuse", "rome") if p != observer]
            assert fed.daemon(observer).quarantined_sites() == []

    def test_partition_quarantines_then_heartbeat_rejoins(self):
        vdce, fed = self.build()
        vdce.apply_fault_plan(FaultPlan([
            LinkDown("syracuse", "rome", at=5.0, restore_after=20.0)]))
        vdce.run(until=20.0)
        assert fed.quarantined("syracuse") == ["rome"]
        assert fed.quarantined("rome") == ["syracuse"]
        assert not fed.is_usable("syracuse", "rome")
        vdce.run(until=40.0)
        assert fed.quarantined("syracuse") == []
        events = [e["event"] for e in fed.daemon("syracuse").events]
        assert events.count("quarantine") == 1
        assert events.count("rejoin") == 1

    def test_permanent_partition_never_rejoins(self):
        vdce, fed = self.build()
        vdce.apply_fault_plan(FaultPlan([
            LinkDown("syracuse", "rome", at=5.0)]))
        vdce.run(until=60.0)
        assert fed.quarantined("syracuse") == ["rome"]
        assert all(e["event"] != "rejoin"
                   for e in fed.daemon("syracuse").events)

    def test_self_peer_rejected(self):
        vdce, fed = self.build()
        with pytest.raises(ConfigurationError):
            fed.daemon("rome").seed_peer("rome")

    def test_observer_is_always_usable_to_itself(self):
        _vdce, fed = self.build()
        assert fed.is_usable("rome", "rome")

    def test_site_filter_feeds_the_site_managers(self):
        vdce, fed = self.build()
        vdce.apply_fault_plan(FaultPlan([
            LinkDown("syracuse", "rome", at=5.0)]))
        vdce.run(until=20.0)
        sm = vdce.site_managers["syracuse"]
        assert sm.site_filter is not None
        assert not sm.site_filter("rome")
        assert sm.site_filter("syracuse")

    def test_unknown_daemon_raises(self):
        _vdce, fed = self.build()
        with pytest.raises(ConfigurationError):
            fed.daemon("atlantis")

    def test_enable_membership_is_idempotent(self):
        vdce, fed = self.build()
        assert vdce.enable_membership() is fed

    def test_enable_membership_requires_start(self):
        vdce = quiet_testbed(seed=0)
        with pytest.raises(ConfigurationError):
            vdce.enable_membership()


class TestElasticOperations:
    HOSTS = [HostSpec(name="h0", arch="x86", os="linux", cpu_factor=1.2,
                      memory_mb=64, group="g0"),
             HostSpec(name="h1", arch="sparc", os="solaris",
                      cpu_factor=1.0, memory_mb=128, group="g0")]

    def test_join_requires_membership_and_links(self):
        vdce = quiet_testbed(seed=0)
        vdce.start()
        with pytest.raises(ConfigurationError):
            vdce.site_join("geneva", hosts=self.HOSTS,
                           links={"syracuse": T1_WAN})
        vdce.enable_membership()
        with pytest.raises(ConfigurationError):
            vdce.site_join("geneva", hosts=self.HOSTS, links={})

    def test_join_becomes_member_everywhere_and_schedulable(self):
        vdce = quiet_testbed(seed=1)
        vdce.start()
        fed = vdce.enable_membership()
        vdce.run(until=5.0)
        vdce.site_join("geneva", hosts=self.HOSTS,
                       links={"syracuse": T1_WAN, "rome": T1_WAN})
        vdce.run(until=15.0)
        for observer in ("syracuse", "rome"):
            assert "geneva" in fed.daemon(observer).usable_sites()
        # the joiner holds a calibrated, constraint-complete repository
        repo = vdce.repositories["geneva"]
        assert len(repo.resource_performance.hosts_at("geneva")) == 2
        graph = linear_solver_graph(vdce.registry, n=40)
        for nid in graph.nodes:
            graph.node(nid).properties.preferred_site = "geneva"
        run = vdce.run_application(graph, "syracuse", k_remote_sites=2)
        assert run.status == "completed"
        assert {e.site for e in run.table.entries.values()} >= {"geneva"}

    def test_leave_drains_then_detaches(self):
        vdce = quiet_testbed(seed=2)
        vdce.start()
        fed = vdce.enable_membership()
        vdce.run(until=5.0)
        proc = vdce.site_leave("rome")
        while not proc.triggered and vdce.now < 120.0:
            vdce.run(until=vdce.now + 5.0)
        assert proc.triggered
        assert "rome" not in vdce.world.sites
        assert "rome" not in vdce.site_managers
        assert "rome" not in vdce.topology.sites
        view = fed.daemon("syracuse").peers["rome"]
        assert view.status == "left"
        # the survivor keeps running without stray daemon crashes
        vdce.run(until=vdce.now + 20.0)
        assert vdce.env.failed_processes == []

    def test_leave_mid_run_relocates_the_leavers_tasks(self):
        vdce = quiet_testbed(seed=3)
        vdce.start()
        vdce.enable_membership()
        graph = linear_solver_graph(vdce.registry, n=120)
        for i, nid in enumerate(graph.nodes):
            graph.node(nid).properties.preferred_site = \
                ("syracuse", "rome")[i % 2]
        process, run = vdce.submit(graph, "syracuse", k_remote_sites=1)
        vdce.run(until=2.0)
        proc = vdce.site_leave("rome", drain_timeout_s=10.0)
        deadline = vdce.now + 600.0
        while not (proc.triggered and process.triggered) \
                and vdce.now < deadline:
            vdce.run(until=vdce.now + 5.0)
        assert process.triggered and process.ok
        assert run.status == "completed"
        assert len(run.completions) == len(graph)
        assert "rome" not in vdce.world.sites
        assert vdce.env.failed_processes == []

    def test_leave_stops_every_process_of_the_leaver(self):
        vdce = wide_area_testbed(n_sites=3, hosts_per_site=4, seed=3)
        vdce.start()
        vdce.enable_membership()
        vdce.enable_failover("site2", ["h1", "h2"])
        vdce.warm_up(20.0)
        hosts = list(vdce.world.site("site2").hosts.values())
        replicas = list(vdce.recovery.sites["site2"].replicas)
        proc = vdce.site_leave("site2")
        vdce.run(until=proc)
        loads = [host.true_load for host in hosts]
        beats = vdce.network.stats.by_kind[SERVER_HEARTBEAT]
        vdce.run(until=vdce.now + 20.0)
        # the departed hosts' walks stopped with their site
        assert [host.true_load for host in hosts] == loads
        assert all(m.host.site != "site2" for m in vdce.load_models)
        # and so did its server heartbeat and its standbys
        assert vdce.network.stats.by_kind[SERVER_HEARTBEAT] == beats
        assert not any(r.active for r in replicas)
        assert "site2" not in vdce.recovery.sites
        assert vdce.env.failed_processes == []


class TestReachableCapacity:
    def test_counts_shrink_under_quarantine(self):
        vdce = quiet_testbed(seed=0, hosts_per_site=3)
        vdce.start()
        assert vdce.reachable_capacity("syracuse") == 6
        vdce.enable_membership()
        vdce.apply_fault_plan(FaultPlan([
            LinkDown("syracuse", "rome", at=5.0)]))
        vdce.run(until=20.0)
        assert vdce.reachable_capacity("syracuse") == 3
        assert vdce.reachable_capacity("rome") == 3


def run_property_federation(seed: int) -> dict:
    """One randomized elastic scenario; returns its observables.

    A three-site chain runs two pipelined applications while a seeded
    schedule cuts a random WAN link (with restore), joins an elastic
    fourth site, and drains away a random non-coordinator site.
    """
    vdce = wide_area_testbed(n_sites=3, hosts_per_site=3, seed=seed,
                             with_loads=False)
    vdce.start()
    fed = vdce.federation = None  # appease linters; reassigned below
    fed = vdce.enable_membership()
    rng = vdce.world.rng.stream("membership-property")
    links = [("site0", "site1"), ("site1", "site2")]
    a, b = links[int(rng.integers(len(links)))]
    cut_at = 5.0 + float(rng.integers(10))
    restore = 15.0 + float(rng.integers(10))
    vdce.apply_fault_plan(FaultPlan([
        LinkDown(a, b, at=cut_at, restore_after=restore)]))

    graphs, processes, runs = [], [], []
    for idx in range(2):
        graph = linear_solver_graph(vdce.registry, n=60)
        sites = sorted(vdce.world.sites)
        for i, nid in enumerate(graph.nodes):
            graph.node(nid).properties.preferred_site = \
                sites[(i + idx) % len(sites)]
        process, run = vdce.submit(graph, "site0", k_remote_sites=2)
        graphs.append(graph)
        processes.append(process)
        runs.append(run)

    join_at = 10.0 + float(rng.integers(10))
    vdce.run(until=join_at)
    vdce.site_join(
        f"elastic{seed}",
        hosts=[HostSpec(name="h0", arch="x86", os="linux",
                        cpu_factor=1.3, memory_mb=64, group="g0")],
        links={"site2": T1_WAN})
    joined = {"done": True}
    deadline = 900.0
    while not all(p.triggered for p in processes) and vdce.now < deadline:
        vdce.run(until=vdce.now + 5.0)
    # after the applications settle, drain away a non-coordinator site
    leaver = ("site1", "site2")[int(rng.integers(2))]
    leave_proc = vdce.site_leave(leaver, drain_timeout_s=30.0)
    while not leave_proc.triggered and vdce.now < deadline + 200.0:
        vdce.run(until=vdce.now + 5.0)
    return {
        "statuses": [run.status for run in runs],
        "completions": [sorted(run.completions) for run in runs],
        "expected": [sorted(graph.nodes) for graph in graphs],
        "joined": joined["done"],
        "left": leave_proc.triggered and leaver not in vdce.world.sites,
        "failed": [name for _, name, _ in vdce.env.failed_processes],
        "ledger": fed.ledger_json(),
    }


@pytest.mark.parametrize("seed", [101, 202, 303])
class TestMembershipProperties:
    def test_never_strands_or_duplicates_an_execution(self, seed):
        outcome = run_property_federation(seed)
        assert outcome["failed"] == []
        assert outcome["joined"] and outcome["left"]
        for status, got, expected in zip(outcome["statuses"],
                                         outcome["completions"],
                                         outcome["expected"]):
            # never stranded: terminal, with every task completed
            # exactly once in the coordinator's dedup'd view
            assert status == "completed", f"stranded run: {status}"
            assert got == expected

    def test_ledger_is_deterministic_per_seed(self, seed):
        assert run_property_federation(seed)["ledger"] == \
            run_property_federation(seed)["ledger"]
