"""Failure-injection scenarios beyond the basic crash tests."""

from repro.faults import FaultPlan, HostCrash, SiteOutage
from repro.scheduling.rescheduling import ReschedulePolicy
from repro.workloads import (
    linear_solver_graph,
    nynet_testbed,
    quiet_testbed,
)


def drive(v, process, max_time=3600.0):
    deadline = v.now + max_time
    while not process.triggered and v.now < deadline:
        v.env.run(until=min(v.now + 5.0, deadline))
    return process.triggered


def crash(v, address, at, recover_after=None):
    v.apply_fault_plan(FaultPlan((HostCrash(address, at, recover_after),)))


def flapping_host_plan(address, rng, mtbf_s, mttr_s, horizon_s):
    """Explicit crash/recover specs for a host that alternates up and
    down: up for an ``Exponential(mtbf_s)`` draw, then down for an
    ``Exponential(mttr_s)`` draw, from time 0 until *horizon_s*."""
    events = []
    t = 0.0
    while True:
        t += float(rng.exponential(mtbf_s))
        if t >= horizon_s:
            return FaultPlan(tuple(events))
        down_s = float(rng.exponential(mttr_s))
        events.append(HostCrash(address, at=t, recover_after=down_s))
        t += down_s


class TestGroupLeaderFailure:
    def test_leader_crash_silences_group_monitoring(self):
        """When the group-leader machine dies, its Group Manager goes
        silent (its host drops all traffic), so the Site Manager stops
        receiving that group's workload updates — an emergent blind spot
        the paper's design shares."""
        v = nynet_testbed(seed=51, hosts_per_site=6, with_loads=True)
        v.start()
        site = v.world.sites["syracuse"]
        leader = site.group_leader("g0")
        v.run(until=20)
        sm_updates_before = v.site_managers["syracuse"].updates_applied
        crash(v, f"syracuse/{leader}", at=v.now)
        v.run(until=60)
        # other groups keep updating; count keeps rising overall but
        # no g0 member's record advances after the crash
        g0_members = [f"syracuse/{m}" for m in site.groups["g0"]]
        repo = v.repositories["syracuse"].resource_performance
        for member in g0_members:
            assert repo.get(member).last_update <= 21.0
        assert v.site_managers["syracuse"].updates_applied >= \
            sm_updates_before

    def test_non_leader_group_keeps_reporting(self):
        v = nynet_testbed(seed=52, hosts_per_site=6, with_loads=True)
        v.start()
        site = v.world.sites["syracuse"]
        leader = site.group_leader("g0")
        crash(v, f"syracuse/{leader}", at=5.0)
        v.run(until=60)
        repo = v.repositories["syracuse"].resource_performance
        g1_members = [f"syracuse/{m}" for m in site.groups["g1"]]
        assert any(repo.get(m).last_update > 30.0 for m in g1_members)


class TestCascadingFailures:
    def build(self, seed):
        v = nynet_testbed(seed=seed, hosts_per_site=3, with_loads=False,
                          reschedule_policy=ReschedulePolicy(
                              load_threshold=3.0, max_attempts=5))
        v.start()
        return v

    def test_two_sequential_crashes_still_complete(self):
        v = self.build(53)
        g = linear_solver_graph(v.registry, n=120)
        process, run = v.submit(g, "syracuse", k_remote_sites=1)
        while run.table is None:
            v.env.run(until=v.now + 0.5)
        first = run.table.get("lu").host
        crash(v, first, at=v.now + 0.05)
        # crash whichever host inherits invert-U a bit later
        v.env.run(until=v.now + 30.0)
        inv_host = v.world.host(run.table.get("invert-U").host)
        if inv_host.up and inv_host.address != first:
            crash(v, inv_host.address, at=v.now + 0.05)
        assert drive(v, process, max_time=7200)
        assert run.status == "completed"
        assert run.reschedules >= 1

    def test_crashed_host_excluded_from_new_schedules(self):
        # h1 is not the group leader: its crash is detectable (the leader
        # h0's Group Manager stays alive to notice the missing echoes)
        v = self.build(54)
        crash(v, "syracuse/h1", at=2.0)
        v.run(until=40)  # detection + repository update
        assert v.repositories["syracuse"].resource_performance.get(
            "syracuse/h1").status == "down"
        g = linear_solver_graph(v.registry, n=60)
        run = v.run_application(g, "syracuse", k_remote_sites=1,
                                max_sim_time_s=3600)
        assert run.status == "completed"
        assert "syracuse/h1" not in run.table.hosts()

    def test_recovered_host_usable_again(self):
        v = self.build(55)
        crash(v, "syracuse/h1", at=2.0, recover_after=30.0)
        v.run(until=90)  # down, then up, both detected
        repo = v.repositories["syracuse"].resource_performance
        assert repo.get("syracuse/h1").status == "up"
        g = linear_solver_graph(v.registry, n=60)
        run = v.run_application(g, "syracuse", k_remote_sites=0,
                                max_sim_time_s=3600)
        assert run.status == "completed"


class TestWholeSiteOutage:
    def test_remote_site_dark_local_still_works(self):
        v = quiet_testbed(seed=56)
        v.start()
        v.apply_fault_plan(FaultPlan((SiteOutage("rome", at=1.0),)))
        v.run(until=40)
        g = linear_solver_graph(v.registry, n=60)
        run = v.run_application(g, "syracuse", k_remote_sites=1,
                                max_sim_time_s=3600)
        assert run.status == "completed"
        assert run.table.sites() == {"syracuse"}

    def test_flapping_host_does_not_corrupt_repository(self):
        v = nynet_testbed(seed=57, hosts_per_site=3, with_loads=False)
        v.start()
        v.apply_fault_plan(flapping_host_plan(
            "syracuse/h1", v.world.rng.stream("flap"),
            mtbf_s=20.0, mttr_s=10.0, horizon_s=400.0))
        v.run(until=400)
        rec = v.repositories["syracuse"].resource_performance.get(
            "syracuse/h1")
        # repository state is one of the two valid values and the group
        # manager detected at least one full down/up cycle
        assert rec.status in ("up", "down")
        gm = v.group_managers[("syracuse", "g0")]
        assert gm.stats.failures_detected >= 1
        assert gm.stats.recoveries_detected >= 1
        # detection counts stay paired within one outstanding event
        assert abs(gm.stats.failures_detected
                   - gm.stats.recoveries_detected) <= 1

    def test_no_silent_daemon_crashes(self):
        """After heavy failure churn, no simulated process died on an
        unhandled exception (the engine records them)."""
        v = nynet_testbed(seed=58, hosts_per_site=4, with_loads=True)
        v.start()
        for i, host in enumerate(v.world.all_hosts()):
            if i % 2 == 0:
                v.apply_fault_plan(flapping_host_plan(
                    host.address, v.world.rng.stream(f"f{i}"),
                    mtbf_s=30.0, mttr_s=15.0, horizon_s=1200.0))
        g = linear_solver_graph(v.registry, n=50)
        v.run_application(g, "syracuse", k_remote_sites=1,
                          max_sim_time_s=1200)
        assert v.env.failed_processes == []


class TestFinishedTasksStayFinished:
    """A host-down reroutes only the tasks that have not completed."""

    def test_crash_after_completions_keeps_finished_tasks(self):
        v = quiet_testbed(seed=1)
        v.start()
        v.warm_up(10.0)
        graph = linear_solver_graph(v.registry, n=150, seed=1)
        process, run = v.submit(graph, "syracuse", k_remote_sites=1)
        while run.table is None:
            v.env.run(until=v.now + 0.01)
        state = v.site_managers["syracuse"].execution_state(run.execution_id)
        while len(state.completed_tasks) < 3:
            v.env.run(until=v.now + 0.01)
        done = sorted(state.completed_tasks)
        assert done == ["gen-A", "gen-b", "lu"]
        assert {state.completed_tasks[n]["host"] for n in done} == \
            {"syracuse/h2"}
        # the run's record is the coordinator's live one, so the sweep
        # triggered by this crash sees the three tasks as finished
        assert run.completions is state.completed_tasks
        crash(v, "syracuse/h2", at=v.now + 0.001, recover_after=1000.0)
        assert drive(v, process)
        assert run.status == "completed"
        assert [run.table.version_of(n) for n in done] == [1, 1, 1]
        assert run.reschedules == 5
        executed = sum(ac.stats.tasks_executed
                       for ac in v.app_controllers.values())
        # 10, not 8: a task running on h2 when it crashes still counts
        assert executed == 10
