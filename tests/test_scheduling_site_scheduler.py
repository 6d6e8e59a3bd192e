"""Tests for the Site Scheduler Algorithm (paper Figure 4), the allocation
table, makespan evaluation, baselines, rescheduling and QoS."""

import numpy as np
import pytest

from repro.afg import GraphBuilder
from repro.scheduling import (
    AllocationEntry,
    HostSelector,
    MinLoadScheduler,
    QoSRequirement,
    RandomScheduler,
    ReschedulePolicy,
    Rescheduler,
    ResourceAllocationTable,
    RoundRobinScheduler,
    SiteScheduler,
    assess_schedule,
    evaluate_schedule,
    predicted_schedule_length,
    require_admission,
)
from repro.util.errors import (
    ConfigurationError,
    NoFeasibleHostError,
    QoSViolationError,
    SchedulingError,
)

from .conftest import build_federation


def pipeline_graph(registry, n=4, size=200):
    b = GraphBuilder(registry, name="pipeline")
    s = b.task("signal-generate", "src", input_size=size,
               params={"n": size})
    f = b.task("fft-1d", "fft", input_size=size)
    b.link(s, f)
    prev = f
    for i in range(n):
        nid = b.task("lowpass-filter", f"f{i}", input_size=size)
        b.link(prev, nid)
        prev = nid
    return b.build()


def solver_graph(registry, size=50):
    b = GraphBuilder(registry, name="solver")
    b.task("matrix-generate", "gen-a", input_size=size, params={"n": size})
    b.task("vector-generate", "gen-b", input_size=size, params={"n": size})
    b.task("lu-decomposition", "lu", input_size=size)
    b.task("matrix-inverse", "inv-l", input_size=size)
    b.task("matrix-inverse", "inv-u", input_size=size)
    b.task("matrix-multiply", "mul", input_size=size)
    b.task("matrix-vector-multiply", "solve", input_size=size)
    b.link("gen-a", "lu")
    b.link("lu", "inv-l", src_port="lower")
    b.link("lu", "inv-u", src_port="upper")
    b.link("inv-u", "mul", dst_port="a")
    b.link("inv-l", "mul", dst_port="b")
    b.link("mul", "solve", dst_port="matrix")
    b.link("gen-b", "solve", dst_port="vector")
    return b.build()


def selectors_for(fed):
    return {site: HostSelector(repo)
            for site, repo in fed.repositories.items()}


class TestSiteScheduler:
    def test_all_tasks_allocated(self, registry, federation):
        sched = SiteScheduler("syracuse", federation.topology, k_remote_sites=1)
        g = solver_graph(registry)
        table, report = sched.schedule_with_selectors(g, selectors_for(federation))
        assert len(table) == len(g)
        assert report.local_site == "syracuse"
        assert set(report.scheduling_order) == set(g.nodes)

    def test_k0_keeps_everything_local(self, registry, federation):
        sched = SiteScheduler("syracuse", federation.topology, k_remote_sites=0)
        g = solver_graph(registry)
        table, _ = sched.schedule_with_selectors(g, selectors_for(federation))
        assert table.sites() == {"syracuse"}
        assert table.remote_fraction("syracuse") == 0.0

    def test_scheduling_order_follows_levels(self, registry, federation):
        sched = SiteScheduler("syracuse", federation.topology)
        g = solver_graph(registry)
        _, report = sched.schedule_with_selectors(g, selectors_for(federation))
        pos = {nid: i for i, nid in enumerate(report.scheduling_order)}
        for link in g.links:
            assert pos[link.src] < pos[link.dst]

    def test_missing_local_site_rejected(self, registry, federation):
        sched = SiteScheduler("nowhere", federation.topology)
        g = solver_graph(registry)
        with pytest.raises(SchedulingError):
            sched.schedule(g, {})

    def test_negative_k_rejected(self, federation):
        with pytest.raises(SchedulingError):
            SiteScheduler("syracuse", federation.topology, k_remote_sites=-1)

    def test_select_remote_sites_orders_by_latency(self, registry):
        fed = build_federation(site_names=("a", "b", "c"), registry=registry)
        sched = SiteScheduler("a", fed.topology, k_remote_sites=2)
        assert sched.select_remote_sites() == ["b", "c"]  # chain a-b-c

    def test_communication_heavy_chain_colocates(self, registry):
        """A chain with huge transfers should stay on one site even when a
        remote site has slightly faster machines."""
        fed = build_federation(registry=registry)
        # make the remote machines look attractive but the chain heavy
        g = pipeline_graph(registry, n=6, size=50000)
        sched = SiteScheduler("syracuse", fed.topology, k_remote_sites=1)
        table, _ = sched.schedule_with_selectors(g, selectors_for(fed))
        sites = [table.get(nid).site for nid in g.topological_order()]
        # after the entry task, consecutive tasks avoid site bouncing
        bounces = sum(1 for a, b in zip(sites[1:], sites[2:]) if a != b)
        assert bounces <= 1

    def test_entry_task_ignores_transfer(self, registry, federation):
        sched = SiteScheduler("syracuse", federation.topology, k_remote_sites=1)
        g = solver_graph(registry)
        table, report = sched.schedule_with_selectors(g, selectors_for(federation))
        assert table.get("gen-a").predicted_transfer_s == 0.0

    def test_loaded_local_site_offloads(self, registry):
        """When every local machine is overloaded, tasks should go remote
        (the benefit of the k>0 multicast)."""
        fed = build_federation(registry=registry)
        repo = fed.repositories["syracuse"]
        for rec in repo.resource_performance.hosts_at("syracuse"):
            for _ in range(5):
                repo.resource_performance.update_dynamic(
                    rec.address, cpu_load=50.0, available_memory_mb=64,
                    time=1.0)
        g = solver_graph(registry)
        sched = SiteScheduler("syracuse", fed.topology, k_remote_sites=1)
        table, _ = sched.schedule_with_selectors(g, selectors_for(fed))
        assert table.remote_fraction("syracuse") > 0.5

    def test_preferred_site_honoured_when_feasible(self, registry, federation):
        g = solver_graph(registry)
        g.node("lu").properties.preferred_site = "rome"
        sched = SiteScheduler("syracuse", federation.topology, k_remote_sites=1)
        table, _ = sched.schedule_with_selectors(g, selectors_for(federation))
        assert table.get("lu").site == "rome"

    def test_deterministic(self, registry, federation):
        g = solver_graph(registry)
        sched = SiteScheduler("syracuse", federation.topology, k_remote_sites=1)
        t1, _ = sched.schedule_with_selectors(g, selectors_for(federation))
        t2, _ = sched.schedule_with_selectors(g, selectors_for(federation))
        assert {n: e.hosts for n, e in t1.entries.items()} == \
            {n: e.hosts for n, e in t2.entries.items()}


class TestAllocationTable:
    def entry(self, nid="t1", host="s1/h1", **kw):
        defaults = dict(node_id=nid, task_name="fft-1d", site="s1",
                        hosts=(host,), predicted_time_s=1.0)
        defaults.update(kw)
        return AllocationEntry(**defaults)

    def test_assign_get(self):
        t = ResourceAllocationTable("app")
        t.assign(self.entry())
        assert t.get("t1").host == "s1/h1"
        assert "t1" in t and len(t) == 1

    def test_double_assign_rejected(self):
        t = ResourceAllocationTable("app")
        t.assign(self.entry())
        with pytest.raises(SchedulingError):
            t.assign(self.entry())

    def test_reassign(self):
        t = ResourceAllocationTable("app")
        t.assign(self.entry())
        old = t.reassign(self.entry(host="s1/h2"))
        assert old.host == "s1/h1"
        assert t.get("t1").host == "s1/h2"

    def test_reassign_unallocated_rejected(self):
        with pytest.raises(SchedulingError):
            ResourceAllocationTable("app").reassign(self.entry())

    def test_portions(self):
        t = ResourceAllocationTable("app")
        t.assign(self.entry("t1", "s1/h1"))
        t.assign(self.entry("t2", "s1/h2"))
        t.assign(self.entry("t3", "s1/h1"))
        assert {e.node_id for e in t.portion_for_host("s1/h1")} == {"t1", "t3"}
        assert len(t.portion_for_site("s1")) == 3

    def test_entry_validation(self):
        with pytest.raises(SchedulingError):
            AllocationEntry(node_id="x", task_name="t", site="s",
                            hosts=(), predicted_time_s=1.0)
        with pytest.raises(SchedulingError):
            AllocationEntry(node_id="x", task_name="t", site="s",
                            hosts=("a", "b"), predicted_time_s=1.0,
                            processors=1)


class TestMakespanEvaluation:
    def test_chain_serialises(self, registry, federation):
        g = pipeline_graph(registry, n=2)
        sched = SiteScheduler("syracuse", federation.topology, k_remote_sites=0)
        table, _ = sched.schedule_with_selectors(g, selectors_for(federation))
        tl = evaluate_schedule(g, table, federation.topology)
        # chain: makespan >= sum of predicted durations
        total = sum(table.get(n).predicted_time_s for n in g.nodes)
        assert tl.makespan >= total - 1e-9

    def test_same_host_tasks_serialise(self, registry, federation):
        """Independent tasks forced onto one host cannot overlap."""
        g = GraphBuilder(registry, name="par")
        a = g.task("signal-generate", "a", input_size=1024)
        b = g.task("signal-generate", "b", input_size=1024)
        graph = g.build()
        table = ResourceAllocationTable("par")
        for nid in ("a", "b"):
            table.assign(AllocationEntry(
                node_id=nid, task_name="signal-generate", site="syracuse",
                hosts=("syracuse/h0",), predicted_time_s=2.0))
        tl = evaluate_schedule(graph, table, federation.topology)
        assert tl.makespan == pytest.approx(4.0)
        assert {tl.start["a"], tl.start["b"]} == {0.0, 2.0}

    def test_different_hosts_overlap(self, registry, federation):
        g = GraphBuilder(registry, name="par")
        g.task("signal-generate", "a", input_size=1024)
        g.task("signal-generate", "b", input_size=1024)
        graph = g.build()
        table = ResourceAllocationTable("par")
        table.assign(AllocationEntry(node_id="a", task_name="signal-generate",
                                     site="syracuse", hosts=("syracuse/h0",),
                                     predicted_time_s=2.0))
        table.assign(AllocationEntry(node_id="b", task_name="signal-generate",
                                     site="syracuse", hosts=("syracuse/h1",),
                                     predicted_time_s=2.0))
        tl = evaluate_schedule(graph, table, federation.topology)
        assert tl.makespan == pytest.approx(2.0)

    def test_cross_site_transfer_delays_start(self, registry, federation):
        b = GraphBuilder(registry, name="x")
        b.task("matrix-generate", "g", input_size=500, params={"n": 500})
        b.task("matrix-inverse", "i", input_size=500)
        b.link("g", "i")
        graph = b.build()
        table = ResourceAllocationTable("x")
        table.assign(AllocationEntry(node_id="g", task_name="matrix-generate",
                                     site="syracuse", hosts=("syracuse/h0",),
                                     predicted_time_s=1.0))
        table.assign(AllocationEntry(node_id="i", task_name="matrix-inverse",
                                     site="rome", hosts=("rome/h0",),
                                     predicted_time_s=1.0))
        tl = evaluate_schedule(graph, table, federation.topology)
        expected_transfer = federation.topology.transfer_time(
            "syracuse", "rome", graph.node("g").output_bytes())
        assert tl.start["i"] == pytest.approx(1.0 + expected_transfer)

    def test_custom_duration_fn(self, registry, federation):
        g = pipeline_graph(registry, n=1)
        sched = SiteScheduler("syracuse", federation.topology, k_remote_sites=0)
        table, _ = sched.schedule_with_selectors(g, selectors_for(federation))
        tl = evaluate_schedule(g, table, federation.topology,
                               duration_fn=lambda nid: 1.0)
        assert tl.makespan >= 3.0  # three tasks in a chain at 1s each

    def test_predicted_schedule_length_positive(self, registry, federation):
        g = solver_graph(registry)
        sched = SiteScheduler("syracuse", federation.topology)
        table, _ = sched.schedule_with_selectors(g, selectors_for(federation))
        assert predicted_schedule_length(g, table, federation.topology) > 0


class TestBaselines:
    def test_all_baselines_produce_full_tables(self, registry, federation):
        g = solver_graph(registry)
        for sched in (RandomScheduler(federation.repositories,
                                      np.random.default_rng(0)),
                      RoundRobinScheduler(federation.repositories),
                      MinLoadScheduler(federation.repositories)):
            table = sched.schedule(g)
            assert len(table) == len(g)

    def test_round_robin_spreads(self, registry, federation):
        g = pipeline_graph(registry, n=6)
        table = RoundRobinScheduler(federation.repositories).schedule(g)
        assert len(table.hosts()) > 1

    def test_min_load_prefers_idle(self, registry, federation):
        repo = federation.repositories["syracuse"]
        for rec in repo.resource_performance.hosts_at("syracuse"):
            load = 0.0 if rec.address == "syracuse/h2" else 5.0
            repo.resource_performance.update_dynamic(
                rec.address, cpu_load=load, available_memory_mb=64, time=1.0)
        repo2 = federation.repositories["rome"]
        for rec in repo2.resource_performance.hosts_at("rome"):
            repo2.resource_performance.update_dynamic(
                rec.address, cpu_load=5.0, available_memory_mb=64, time=1.0)
        b = GraphBuilder(registry)
        b.task("fft-1d", "f", input_size=1024)
        b.task("signal-generate", "s", input_size=1024)
        b.link("s", "f")
        table = MinLoadScheduler(federation.repositories).schedule(b.build())
        assert table.get("f").host == "syracuse/h2"

    def test_baselines_respect_constraints(self, registry):
        fed = build_federation(
            registry=registry,
            constrain={"lu-decomposition": {"rome/h1"}})
        g = solver_graph(registry)
        for sched in (RandomScheduler(fed.repositories),
                      RoundRobinScheduler(fed.repositories),
                      MinLoadScheduler(fed.repositories)):
            table = sched.schedule(g)
            assert table.get("lu").host == "rome/h1"

    def test_infeasible_everywhere_raises(self, registry):
        fed = build_federation(registry=registry,
                               constrain={"lu-decomposition": set()})
        g = solver_graph(registry)
        with pytest.raises(NoFeasibleHostError):
            RandomScheduler(fed.repositories).schedule(g)

    def test_parallel_task_within_one_site(self, registry, federation):
        g = solver_graph(registry)
        g.node("lu").properties.computation_mode = "parallel"
        g.node("lu").properties.processors = 2
        for sched in (RandomScheduler(federation.repositories),
                      RoundRobinScheduler(federation.repositories),
                      MinLoadScheduler(federation.repositories)):
            table = sched.schedule(g)
            entry = table.get("lu")
            assert len(entry.hosts) == 2
            assert len({h.split("/")[0] for h in entry.hosts}) == 1


def rescheduler_for(fed):
    """A Rescheduler over one fresh selector per site of *fed*."""
    return Rescheduler({site: HostSelector(repo)
                        for site, repo in fed.repositories.items()})


class TestRescheduler:
    def test_excludes_current_host(self, registry, federation):
        g = solver_graph(registry)
        node = g.node("lu")
        current = AllocationEntry(
            node_id="lu", task_name="lu-decomposition", site="syracuse",
            hosts=("syracuse/h0",), predicted_time_s=5.0)
        resched = rescheduler_for(federation)
        new = resched.reschedule(node, current)
        assert new.hosts[0] != "syracuse/h0"

    def test_extra_exclusions(self, registry, federation):
        g = solver_graph(registry)
        node = g.node("lu")
        current = AllocationEntry(
            node_id="lu", task_name="lu-decomposition", site="syracuse",
            hosts=("syracuse/h0",), predicted_time_s=5.0)
        all_hosts = set(federation.hosts)
        exclude = all_hosts - {"rome/h2"}
        new = rescheduler_for(federation).reschedule(
            node, current, exclude_hosts=exclude)
        assert new.hosts == ("rome/h2",)

    def test_nowhere_to_go_raises(self, registry, federation):
        g = solver_graph(registry)
        node = g.node("lu")
        current = AllocationEntry(
            node_id="lu", task_name="lu-decomposition", site="syracuse",
            hosts=("syracuse/h0",), predicted_time_s=5.0)
        with pytest.raises(NoFeasibleHostError):
            rescheduler_for(federation).reschedule(
                node, current, exclude_hosts=set(federation.hosts))

    def test_policy_threshold(self):
        policy = ReschedulePolicy(load_threshold=2.0)
        assert policy.should_reschedule(2.5)
        assert not policy.should_reschedule(1.5)

    @pytest.mark.parametrize("kwargs", [
        dict(load_threshold=float("nan")),
        dict(load_threshold=-1.0),
        dict(load_threshold=float("-inf")),
        dict(max_attempts=-2),
    ], ids=["nan-threshold", "negative-threshold", "minus-inf-threshold",
            "negative-attempts"])
    def test_bad_policy_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ReschedulePolicy(**kwargs)

    def test_infinite_threshold_turns_rescheduling_off(self):
        policy = ReschedulePolicy(load_threshold=float("inf"),
                                  max_attempts=0)
        assert not policy.should_reschedule(1e300)


class TestQoS:
    def test_admission_pass_and_fail(self, registry, federation):
        g = solver_graph(registry)
        sched = SiteScheduler("syracuse", federation.topology)
        table, _ = sched.schedule_with_selectors(g, selectors_for(federation))
        predicted = predicted_schedule_length(g, table, federation.topology)
        ok = assess_schedule(g, table, federation.topology,
                             QoSRequirement(deadline_s=predicted * 2))
        assert ok.admitted and ok.margin_s > 0
        bad = assess_schedule(g, table, federation.topology,
                              QoSRequirement(deadline_s=predicted / 2))
        assert not bad.admitted
        with pytest.raises(QoSViolationError):
            require_admission(g, table, federation.topology,
                              QoSRequirement(deadline_s=predicted / 2))

    def test_no_deadline_always_admitted(self, registry, federation):
        g = solver_graph(registry)
        sched = SiteScheduler("syracuse", federation.topology)
        table, _ = sched.schedule_with_selectors(g, selectors_for(federation))
        a = assess_schedule(g, table, federation.topology, QoSRequirement())
        assert a.admitted and a.margin_s is None

    def test_invalid_requirements(self):
        with pytest.raises(Exception):
            QoSRequirement(deadline_s=0)
        with pytest.raises(Exception):
            QoSRequirement(max_host_load=-1)

    @pytest.mark.parametrize("field", ["deadline_s", "max_host_load"])
    def test_nan_requirement_rejected(self, field):
        with pytest.raises(ConfigurationError):
            QoSRequirement(**{field: float("nan")})
