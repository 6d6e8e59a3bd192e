"""End-to-end integration tests: the full Editor -> Scheduler -> Runtime
pipeline over the simulated NYNET testbed."""

import gc
import weakref

import numpy as np
import pytest

from repro import VDCE, HostSpec, QoSRequirement, TaskProperties
from repro.faults import FaultPlan, HostCrash
from repro.obs import Observability
from repro.scheduling.rescheduling import ReschedulePolicy
from repro.util.errors import ConfigurationError, QoSViolationError
from repro.workloads import (
    c3i_scenario_graph,
    fourier_pipeline_graph,
    linear_solver_graph,
    nynet_testbed,
    quiet_testbed,
)


@pytest.fixture
def vdce():
    v = quiet_testbed(seed=5)
    v.start()
    return v


class TestLifecycleGuards:
    def test_finished_simulation_is_collectable(self):
        # no module-level state (caches, registries of clocks or
        # environments) may keep a dropped simulation alive
        v = nynet_testbed(seed=1, hosts_per_site=2)
        v.start()
        graph = linear_solver_graph(v.registry, n=20)
        assert v.run_application(graph, "syracuse").status == "completed"
        ref = weakref.ref(v)
        del v
        gc.collect()
        assert ref() is None

    def test_submit_before_start_rejected(self):
        v = quiet_testbed(seed=1)
        with pytest.raises(ConfigurationError):
            v.submit(None, "syracuse")

    def test_add_site_after_start_rejected(self, vdce):
        with pytest.raises(ConfigurationError):
            vdce.add_site("late")

    def test_double_start_rejected(self, vdce):
        with pytest.raises(ConfigurationError):
            vdce.start()

    def test_start_without_sites_rejected(self):
        with pytest.raises(ConfigurationError):
            VDCE(seed=0).start()

    def test_unknown_site_submit(self, vdce):
        g = linear_solver_graph(vdce.registry, n=20)
        with pytest.raises(ConfigurationError):
            vdce.submit(g, "atlantis")


class TestEndToEndSolver:
    def test_solver_completes_and_verifies(self, vdce):
        g = linear_solver_graph(vdce.registry, n=40)
        run = vdce.run_application(g, "syracuse", max_sim_time_s=600)
        assert run.status == "completed"
        assert len(run.completions) == len(g)
        assert run.results()["verify"]["norm"] < 1e-8

    def test_makespan_ordering_sane(self, vdce):
        g = linear_solver_graph(vdce.registry, n=40)
        run = vdce.run_application(g, "syracuse", max_sim_time_s=600)
        assert 0 <= run.submitted_at <= run.scheduled_at <= run.started_at \
            <= run.finished_at
        assert run.makespan > 0

    def test_timeline_respects_precedence(self, vdce):
        g = linear_solver_graph(vdce.registry, n=40)
        run = vdce.run_application(g, "syracuse", max_sim_time_s=600)
        finish = {nid: p["started_s"] + p["elapsed_s"]
                  for nid, p in run.completions.items()}
        start = {nid: p["started_s"] for nid, p in run.completions.items()}
        for link in g.links:
            assert finish[link.src] <= start[link.dst] + 1e-9

    def test_execution_times_recorded_in_repository(self, vdce):
        g = linear_solver_graph(vdce.registry, n=40)
        vdce.run_application(g, "syracuse", max_sim_time_s=600)
        tp = vdce.repositories["syracuse"].task_performance
        assert len(tp.history("lu-decomposition")) >= 1

    def test_bigger_problems_take_longer(self, vdce):
        r1 = vdce.run_application(linear_solver_graph(vdce.registry, n=30),
                                  "syracuse", max_sim_time_s=600)
        r2 = vdce.run_application(linear_solver_graph(vdce.registry, n=90),
                                  "syracuse", max_sim_time_s=600)
        assert r2.execution_time > r1.execution_time

    def test_deterministic_replay(self):
        def once():
            v = quiet_testbed(seed=9)
            v.start()
            g = linear_solver_graph(v.registry, n=30)
            run = v.run_application(g, "syracuse", max_sim_time_s=600)
            return (run.makespan,
                    tuple(sorted((n, e.hosts) for n, e in
                                 run.table.entries.items())))

        assert once() == once()


class TestOtherApplications:
    def test_fourier_pipeline_finds_tones(self, vdce):
        g = fourier_pipeline_graph(vdce.registry, n=1000, stages=2)
        run = vdce.run_application(g, "rome", max_sim_time_s=600)
        assert run.status == "completed"
        peaks = run.results()["peaks"]["peaks"]
        assert set(np.round(peaks)) == {50.0, 180.0}

    def test_c3i_scenario_produces_plan(self, vdce):
        g = c3i_scenario_graph(vdce.registry, targets=15, steps=10)
        run = vdce.run_application(g, "syracuse", max_sim_time_s=600)
        assert run.status == "completed"
        plan = run.results()["plan"]["plan"]
        assert plan.shape[1] == 3 and plan.shape[0] >= 1

    def test_parallel_lu_variant_completes(self, vdce):
        g = linear_solver_graph(vdce.registry, n=60, parallel_lu=True)
        run = vdce.run_application(g, "syracuse", max_sim_time_s=600)
        assert run.status == "completed"
        entry = run.table.get("lu")
        assert entry.processors == 2 and len(entry.hosts) == 2
        assert run.results()["verify"]["norm"] < 1e-8


class TestEditorIntegration:
    def test_editor_to_execution(self, vdce):
        editor = vdce.open_editor("vdce", "vdce", "from-editor")
        editor.add_task("signal-generate", "s")
        editor.add_task("fft-1d", "f")
        editor.add_task("power-spectrum", "p")
        editor.set_mode("link")
        editor.connect("s", "signal", "f", "signal")
        editor.connect("f", "spectrum", "p", "spectrum")
        editor.set_mode("run")
        graph = editor.submit()
        run = vdce.run_application(graph, "syracuse", max_sim_time_s=600)
        assert run.status == "completed"
        assert run.results()["p"]["power"] is not None

    def test_bad_login(self, vdce):
        from repro.util.errors import AuthenticationError
        with pytest.raises(AuthenticationError):
            vdce.open_editor("vdce", "wrong")


class TestCrossSiteExecution:
    def test_overloaded_local_site_offloads_and_completes(self):
        v = quiet_testbed(seed=11)
        v.start()
        # saturate every syracuse machine so the scheduler goes remote
        for host in v.world.all_hosts():
            if host.site == "syracuse":
                host.true_load = 40.0
        v.warm_up(20.0)
        g = linear_solver_graph(v.registry, n=40)
        run = v.run_application(g, "syracuse", k_remote_sites=1,
                                max_sim_time_s=900)
        assert run.status == "completed"
        assert run.table.remote_fraction("syracuse") > 0.5
        assert run.results()["verify"]["norm"] < 1e-8

    def test_cross_site_data_really_flows(self):
        """Pin producer and consumer on different sites via preference."""
        v = quiet_testbed(seed=13)
        v.start()
        g = fourier_pipeline_graph(v.registry, n=500, stages=1)
        g.node("sig").properties.preferred_site = "syracuse"
        g.node("fft").properties.preferred_site = "rome"
        run = v.run_application(g, "syracuse", k_remote_sites=1,
                                max_sim_time_s=900)
        assert run.status == "completed"
        assert run.table.get("sig").site == "syracuse"
        assert run.table.get("fft").site == "rome"
        assert run.results()["peaks"]["peaks"] is not None


class TestQoSAdmission:
    def test_impossible_deadline_rejected(self, vdce):
        g = linear_solver_graph(vdce.registry, n=80)
        with pytest.raises(QoSViolationError):
            vdce.run_application(g, "syracuse",
                                 qos=QoSRequirement(deadline_s=1e-6),
                                 max_sim_time_s=600)

    def test_rejected_submit_never_executes(self, vdce):
        """A crash of a host the rejected table names must not re-route
        (and so run) any task of the never-admitted application."""
        g = linear_solver_graph(vdce.registry, n=40)
        process, run = vdce.submit(g, "syracuse", k_remote_sites=1,
                                   qos=QoSRequirement(deadline_s=1e-6))
        vdce.run(until=vdce.now + 5.0)
        assert isinstance(process.exception, QoSViolationError)
        assert run.status == "rejected"
        hosts = sorted({e.host for e in run.table.entries.values()})
        assert hosts == ["syracuse/h2"]
        vdce.apply_fault_plan(FaultPlan((
            HostCrash("syracuse/h2", at=vdce.now + 1.0),)))
        vdce.run(until=vdce.now + 30.0)
        assert run.reschedules == 0
        assert sum(ac.stats.tasks_executed
                   for ac in vdce.app_controllers.values()) == 0

    def test_generous_deadline_admitted(self, vdce):
        g = linear_solver_graph(vdce.registry, n=40)
        run = vdce.run_application(g, "syracuse",
                                   qos=QoSRequirement(deadline_s=1e6),
                                   max_sim_time_s=600)
        assert run.status == "completed"


class TestDynamicRescheduling:
    def build(self):
        v = nynet_testbed(seed=21, with_loads=False, hosts_per_site=3,
                          reschedule_policy=ReschedulePolicy(
                              load_threshold=3.0, max_attempts=3),
                          obs=Observability())
        v.start()
        return v

    def test_load_spike_triggers_reschedule(self):
        from repro.resources.loads import SpikeLoad
        v = self.build()
        g = linear_solver_graph(v.registry, n=150)
        # figure out where lu would land, then spike that machine hard
        process, run = v.submit(g, "syracuse", k_remote_sites=1)
        while run.table is None:
            v.env.run(until=v.now + 1.0)
        lu_host = v.world.host(run.table.get("lu").host)
        SpikeLoad(v.env, lu_host, spikes=[(v.now + 0.05, 3000.0, 50.0)])
        deadline = v.now + 3000
        while not process.triggered and v.now < deadline:
            v.env.run(until=v.now + 5.0)
        assert process.triggered
        assert run.status == "completed"
        assert run.reschedules >= 1
        assert v.tracer.count("task-terminated") + \
            v.tracer.count("vdce:rescheduled") >= 1

    def test_host_crash_mid_execution_recovers(self):
        v = self.build()
        g = linear_solver_graph(v.registry, n=150)
        process, run = v.submit(g, "syracuse", k_remote_sites=1)
        while run.table is None:
            v.env.run(until=v.now + 1.0)
        lu_host = run.table.get("lu").host
        v.apply_fault_plan(FaultPlan((HostCrash(lu_host, at=v.now + 0.05),)))
        deadline = v.now + 3000
        while not process.triggered and v.now < deadline:
            v.env.run(until=v.now + 5.0)
        assert process.triggered
        assert run.status == "completed"
        assert run.reschedules >= 1
        # the replacement host is not the dead one
        assert run.table.get("lu").host != lu_host


class TestPerApplicationQoSCeiling:
    def test_strict_max_host_load_triggers_earlier_rescheduling(self):
        """Two identical runs under the same moderate load: the strict
        QoS application reschedules away; the lax one rides it out."""
        from repro.resources.loads import SpikeLoad

        def run_with(max_host_load):
            v = nynet_testbed(seed=91, hosts_per_site=3, with_loads=False,
                              reschedule_policy=ReschedulePolicy(
                                  load_threshold=1e9))  # site policy: off
            v.start()
            g = linear_solver_graph(v.registry, n=150)
            process, run = v.submit(
                g, "syracuse", k_remote_sites=1,
                qos=QoSRequirement(deadline_s=1e9,
                                   max_host_load=max_host_load))
            while run.table is None:
                v.env.run(until=v.now + 0.5)
            victim = v.world.host(run.table.get("lu").host)
            SpikeLoad(v.env, victim, spikes=[(v.now + 0.05, 5000.0, 5.0)])
            deadline = v.now + 5000
            while not process.triggered and v.now < deadline:
                v.env.run(until=v.now + 5.0)
            assert run.status == "completed"
            return run

        strict = run_with(max_host_load=2.0)
        lax = run_with(max_host_load=100.0)
        assert strict.reschedules >= 1
        assert lax.reschedules == 0
        assert strict.makespan < lax.makespan


class TestFacadeTeardown:
    def test_stop_quiesces_event_queue(self):
        v = quiet_testbed(seed=121)
        v.start()
        g = linear_solver_graph(v.registry, n=40)
        run = v.run_application(g, "syracuse", max_sim_time_s=600)
        assert run.status == "completed"
        v.stop()
        # with every daemon stopped the queue drains without a horizon
        v.env.run()
        assert v.env.peek() == float("inf")

    def test_stop_before_the_first_step_ends_every_process_cleanly(self):
        # every daemon is stopped before its process ran once
        v = quiet_testbed(seed=1)
        v.start()
        v.stop()
        v.env.run()
        assert v.env.failed_processes == []
        assert v.env.peek() == float("inf")
