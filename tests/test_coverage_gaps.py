"""Tests for smaller code paths not covered elsewhere."""

import numpy as np
import pytest

from repro.scheduling import HostSelector, SiteScheduler
from repro.scheduling.makespan import evaluate_schedule
from repro.simcore import Environment
from repro.tasklib import TaskDefinition, validate_unique_names
from repro.util.errors import ConfigurationError
from repro.workloads import linear_solver_graph, quiet_testbed

from .conftest import build_federation


class TestRunRecord:
    def test_summary_fields(self, registry):
        v = quiet_testbed(seed=71)
        v.start()
        g = linear_solver_graph(v.registry, n=40)
        run = v.run_application(g, "syracuse", max_sim_time_s=600)
        s = run.summary()
        assert s["application"] == "linear-equation-solver"
        assert s["status"] == "completed"
        assert s["tasks"] == len(g)
        assert s["makespan_s"] > 0
        assert s["reschedules"] == 0

    def test_task_timeline_sorted(self, registry):
        v = quiet_testbed(seed=72)
        v.start()
        g = linear_solver_graph(v.registry, n=40)
        run = v.run_application(g, "syracuse", max_sim_time_s=600)
        rows = run.task_timeline()
        starts = [r[2] for r in rows]
        assert starts == sorted(starts)
        assert all(r[3] >= r[2] for r in rows)


class TestSchedulerEdgeCases:
    def test_unachievable_preference_recorded(self, registry):
        """A preferred site that cannot run the task is a soft failure:
        the task goes elsewhere and the report notes the unmet wish."""
        fed = build_federation(registry=registry)
        g = linear_solver_graph(registry, n=40)
        g.node("lu").properties.preferred_site = "atlantis"  # nonexistent
        selectors = {s: HostSelector(r)
                     for s, r in fed.repositories.items()}
        sched = SiteScheduler("syracuse", fed.topology, k_remote_sites=1)
        table, report = sched.schedule_with_selectors(g, selectors)
        assert table.get("lu").site in ("syracuse", "rome")
        assert report.per_task_candidates["lu"].get(
            "_preference_unmet") == 1.0

    def test_timeline_total_transfer(self, registry):
        fed = build_federation(registry=registry)
        g = linear_solver_graph(registry, n=40)
        g.node("lu").properties.preferred_site = "rome"
        selectors = {s: HostSelector(r)
                     for s, r in fed.repositories.items()}
        table, _ = SiteScheduler("syracuse", fed.topology,
                                 k_remote_sites=1).schedule_with_selectors(
            g, selectors)
        tl = evaluate_schedule(g, table, fed.topology)
        assert tl.total_transfer() > 0  # gen-A -> lu crosses sites


class TestSimcoreEdges:
    def test_all_of_failure_propagates(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1.0)
            raise ValueError("child failed")

        def parent(env):
            try:
                yield env.all_of([env.process(bad(env)),
                                  env.timeout(5.0)])
            except ValueError as e:
                return f"caught: {e}"

        p = env.process(parent(env))
        assert env.run(until=p) == "caught: child failed"

    def test_any_of_with_already_processed_event(self):
        env = Environment()

        def proc(env):
            done = env.timeout(0.5)
            yield env.timeout(1.0)  # `done` fires and is processed first
            idx, value = yield env.any_of([done, env.timeout(10.0)])
            return idx

        p = env.process(proc(env))
        assert env.run(until=p) == 0

    def test_failed_process_recorded(self):
        env = Environment()

        def boom(env):
            yield env.timeout(1.0)
            raise RuntimeError("crash")

        env.process(boom(env), name="victim")
        env.run(until=5.0)
        assert len(env.failed_processes) == 1
        when, name, exc = env.failed_processes[0]
        assert when == 1.0 and name == "victim"
        assert isinstance(exc, RuntimeError)


class TestTaskLibHelpers:
    def test_validate_unique_names(self):
        a = TaskDefinition(name="t", library="l", description="")
        b = TaskDefinition(name="t", library="l", description="")
        with pytest.raises(ConfigurationError):
            validate_unique_names([a, b])
        validate_unique_names([a])  # single is fine


class TestLocalRunnerIOService:
    def test_io_inputs_resolved_into_params(self, registry):
        from repro.afg import GraphBuilder
        from repro.runtime.local import LocalRunner
        from repro.runtime.services import IOService
        io = IOService()
        io.register_value("problem-size", 32)
        b = GraphBuilder(registry, name="io-demo")
        b.task("matrix-generate", "g", input_size=32,
               params={"seed": 3, "_io_inputs": {"n": "problem-size"}})
        runner = LocalRunner(b.build(), io=io, timeout_s=20.0)
        result = runner.run()
        assert result.ok, result.errors
        assert result.outputs["g"]["matrix"].shape == (32, 32)


class TestNetworkDelayModel:
    def test_delay_components(self):
        v = quiet_testbed(seed=74)
        v.start()
        net, env = v.network, v.env

        def arrival_delay(src, dst):
            got = net.register(dst).get()
            start = env.now
            net.send(src, dst, "probe", size_bytes=100)
            first, _ = env.run(until=env.any_of([got, env.timeout(1.0)]))
            assert first == 0, f"probe {src} -> {dst} never arrived"
            return env.now - start

        def priced(src_site, dst_site):
            latency, bandwidth = net.topology.route(src_site, dst_site)
            return latency + 100 / bandwidth + net.per_message_overhead_s

        # same host: loopback; same site: LAN; cross site: WAN
        local = arrival_delay("syracuse/h0/probe-a", "syracuse/h0/probe-b")
        lan = arrival_delay("syracuse/h0/probe", "syracuse/h1/probe")
        wan = arrival_delay("syracuse/h0/probe", "rome/h0/probe")
        assert local == pytest.approx(
            1e-5 + 100 / 1e9 + net.per_message_overhead_s)
        assert lan == pytest.approx(priced("syracuse", "syracuse"))
        assert wan == pytest.approx(priced("syracuse", "rome"))
        assert local < lan < wan


class TestComparativeRunsIntegration:
    def test_comparative_view_over_real_runs(self):
        from repro.viz import ComparativeView
        cv = ComparativeView()
        for label, k in (("local-only", 0), ("federated", 1)):
            v = quiet_testbed(seed=75)
            v.start()
            g = linear_solver_graph(v.registry, n=50)
            cv.add(label, v.run_application(g, "syracuse",
                                            k_remote_sites=k,
                                            max_sim_time_s=600))
        table = cv.table()
        assert len(table) == 2
        assert cv.best() in ("local-only", "federated")


class TestWideAreaRing:
    def test_ring_topology_shortens_wraparound(self, registry):
        from repro.workloads import wide_area_testbed
        chain = wide_area_testbed(n_sites=4, seed=1, with_loads=False)
        ring = wide_area_testbed(n_sites=4, seed=1, with_loads=False,
                                 ring=True)
        # site0 -> site3: 3 hops on the chain, 1 hop on the ring
        assert len(chain.topology.path("site0", "site3")) == 4
        assert len(ring.topology.path("site0", "site3")) == 2
        assert ring.topology.latency("site0", "site3") < \
            chain.topology.latency("site0", "site3")


class TestGroupManagerAllocationPush:
    def test_portion_forwarded_to_assigned_machines(self):
        """Direct check of Figure 6 interaction 4: the Group Manager
        forwards each machine's related RAT portion."""
        from repro.net import ALLOCATION_PUSH, EXECUTION_REQUEST
        from repro.workloads import quiet_testbed
        v = quiet_testbed(seed=111)
        v.start()
        gm = v.group_managers[("syracuse", "g0")]
        v.network.send("syracuse/server/sitemgr", gm.address,
                       ALLOCATION_PUSH,
                       payload={"application": "x", "execution_id": "e9",
                                "portions": {"syracuse/h1": [
                                    {"node_id": "t", "hosts":
                                     ["syracuse/h1"]}]},
                                "coordinator": "syracuse/server/sitemgr"})
        v.run(until=1.0)
        sent = v.network.stats.by_kind.get(EXECUTION_REQUEST, 0)
        assert sent == 1


class TestPredictionMatchesGroundTruthSlowdown:
    def test_memory_penalty_parity(self, registry):
        """Predict()'s paging penalty uses the same slope as the host's
        ground-truth slowdown, so a perfectly informed prediction matches
        the simulator under memory pressure."""
        from repro.prediction import MEMORY_PENALTY_SLOPE
        from repro.resources import Host, HostSpec
        host = Host(spec=HostSpec(name="h", memory_mb=100.0), site="s")
        overflow_mb = 60.0
        host.memory_used_mb = 100.0  # full
        truth = host.slowdown(extra_memory_mb=overflow_mb)
        predicted = 1.0 + MEMORY_PENALTY_SLOPE * overflow_mb / 100.0
        # ground truth counts used+extra-total = 60 overflow, same formula
        assert truth == pytest.approx(predicted)


class TestPublicTestingHelpers:
    def test_build_federation_importable_from_library(self):
        """Downstream users can build fixtures without this repo's tests."""
        from repro.testing import Federation, build_federation
        fed = build_federation(site_names=("a", "b"), hosts_per_site=2)
        assert isinstance(fed, Federation)
        assert set(fed.repositories) == {"a", "b"}
        assert len(fed.hosts_at("a")) == 2
        # repositories are schedule-ready: calibrated + constrained
        repo = fed.repositories["a"]
        assert repo.task_performance.has_weight("lu-decomposition", "a/h0")
        assert repo.task_constraints.is_runnable_on("fft-1d", "a/h1")


class TestMakespanEvaluatorPaths:
    """makespan.py paths the bake-off scoring leans on (ISSUE 6 sat. 4)."""

    def _scored_table(self, registry):
        from repro.scheduling import SchedulerContext, create_scheduler
        from repro.workloads import fork_join_graph
        fed = build_federation(registry=registry)
        graph = fork_join_graph(registry, width=2, size=256)
        ctx = SchedulerContext(repositories=fed.repositories,
                               topology=fed.topology,
                               local_site="syracuse")
        return fed, graph, create_scheduler("heft", ctx).schedule(graph)

    def test_empty_timeline_defaults(self):
        from repro.scheduling.makespan import Timeline
        tl = Timeline()
        assert tl.makespan == 0.0
        assert tl.total_transfer() == 0.0

    def test_duration_fn_override_changes_makespan(self, registry):
        fed, graph, table = self._scored_table(registry)
        default = evaluate_schedule(graph, table, fed.topology)
        unit = evaluate_schedule(graph, table, fed.topology,
                                 duration_fn=lambda nid: 1.0)
        assert default.makespan != unit.makespan
        # every task lasts exactly 1s under the constant model
        assert all(unit.finish[n] - unit.start[n] == 1.0
                   for n in graph.nodes)

    def test_levels_reuse_matches_recompute(self, registry):
        from repro.scheduling.levels import compute_levels
        fed, graph, table = self._scored_table(registry)
        fresh = evaluate_schedule(graph, table, fed.topology)
        reused = evaluate_schedule(graph, table, fed.topology,
                                   levels=compute_levels(graph))
        assert fresh.start == reused.start
        assert fresh.finish == reused.finish

    def test_predicted_vs_ground_truth_duration_fns(self, registry):
        """The two bake-off duration models are both pluggable views of
        the same evaluator, and they disagree once true loads move."""
        from repro.bakeoff import (ground_truth_durations,
                                   repository_predicted_durations)
        fed, graph, table = self._scored_table(registry)
        for host in fed.hosts.values():
            host.true_load = 0.9  # repository still believes idle
        predicted = evaluate_schedule(
            graph, table, fed.topology,
            duration_fn=repository_predicted_durations(graph, table, fed))
        simulated = evaluate_schedule(
            graph, table, fed.topology,
            duration_fn=ground_truth_durations(graph, table, fed))
        assert simulated.makespan > predicted.makespan


class TestQoSAdmission:
    """qos.py admission paths, driven through bake-off-scored tables."""

    def _schedule(self, registry):
        from repro.scheduling import SchedulerContext, create_scheduler
        from repro.workloads import fourier_pipeline_graph
        fed = build_federation(registry=registry)
        graph = fourier_pipeline_graph(registry, n=512, stages=1)
        ctx = SchedulerContext(repositories=fed.repositories,
                               topology=fed.topology,
                               local_site="syracuse")
        return fed, graph, create_scheduler("site", ctx).schedule(graph)

    def test_no_deadline_always_admitted(self, registry):
        from repro.scheduling.qos import QoSRequirement, assess_schedule
        fed, graph, table = self._schedule(registry)
        verdict = assess_schedule(graph, table, fed.topology,
                                  QoSRequirement())
        assert verdict.admitted
        assert verdict.deadline_s is None and verdict.margin_s is None
        assert verdict.predicted_length_s > 0

    def test_generous_deadline_admitted_with_margin(self, registry):
        from repro.scheduling.qos import QoSRequirement, assess_schedule
        fed, graph, table = self._schedule(registry)
        verdict = assess_schedule(graph, table, fed.topology,
                                  QoSRequirement(deadline_s=3600.0))
        assert verdict.admitted
        assert verdict.margin_s == pytest.approx(
            3600.0 - verdict.predicted_length_s)

    def test_tight_deadline_rejected_and_raises(self, registry):
        from repro.scheduling.qos import (QoSRequirement, assess_schedule,
                                          require_admission)
        from repro.util.errors import QoSViolationError
        fed, graph, table = self._schedule(registry)
        tight = QoSRequirement(deadline_s=1e-9)
        assert not assess_schedule(graph, table, fed.topology,
                                   tight).admitted
        with pytest.raises(QoSViolationError, match="exceeds deadline"):
            require_admission(graph, table, fed.topology, tight)

    def test_requirement_validation(self):
        from repro.scheduling.qos import QoSRequirement
        with pytest.raises(ConfigurationError):
            QoSRequirement(deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            QoSRequirement(max_host_load=-1.0)
