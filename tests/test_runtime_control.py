"""Tests for the Control Manager: monitors, group managers, site managers,
the change filter, and failure detection."""

import pytest

from repro.faults import FaultPlan, HostCrash
from repro.net import Network, Topology
from repro.obs import Observability
from repro.resources.host import Host, HostSpec
from repro.runtime.control.change_filter import ChangeFilter
from repro.runtime.control.group_manager import ECHO_TIMEOUT_S
from repro.runtime.control.monitor import MonitorDaemon
from repro.runtime.control.site_manager import (
    SELECTION_TIMEOUT_S,
    ExecutionState,
)
from repro.simcore import Environment
from repro.util.errors import ConfigurationError
from repro.workloads import quiet_testbed


class TestChangeFilter:
    def test_first_measurement_always_forwarded(self):
        f = ChangeFilter(policy="ci")
        assert f.observe("h1", 0.5) is True

    def test_always_policy(self):
        f = ChangeFilter(policy="always")
        assert all(f.observe("h1", 0.5) for _ in range(5))

    def test_ci_suppresses_stable_noisy_load(self):
        f = ChangeFilter(policy="ci", window=8)
        f.observe("h1", 0.50)
        noise = [0.52, 0.48, 0.51, 0.49, 0.50, 0.52, 0.48]
        sent = sum(f.observe("h1", v) for v in noise)
        assert sent <= 2  # most noise suppressed

    def test_ci_forwards_real_shift(self):
        f = ChangeFilter(policy="ci", window=8)
        for v in (0.50, 0.52, 0.48, 0.51):
            f.observe("h1", v)
        assert f.observe("h1", 3.0) is True

    def test_threshold_policy(self):
        f = ChangeFilter(policy="threshold", threshold=0.5)
        f.observe("h1", 1.0)
        assert f.observe("h1", 1.4) is False
        assert f.observe("h1", 1.6) is True

    def test_last_forwarded_tracks_sends_only(self):
        f = ChangeFilter(policy="threshold", threshold=0.5)
        f.observe("h1", 1.0)
        f.observe("h1", 1.1)  # suppressed
        assert f.last_forwarded("h1") == 1.0

    def test_per_host_independent(self):
        f = ChangeFilter(policy="threshold", threshold=0.5)
        f.observe("h1", 1.0)
        assert f.observe("h2", 9.0) is True  # first for h2

    def test_reset(self):
        f = ChangeFilter(policy="ci")
        f.observe("h1", 1.0)
        f.reset("h1")
        assert f.last_forwarded("h1") is None
        assert f.observe("h1", 1.0) is True

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            ChangeFilter(policy="psychic")
        with pytest.raises(ConfigurationError):
            ChangeFilter(window=1)
        with pytest.raises(ConfigurationError):
            ChangeFilter(threshold=0)


@pytest.fixture
def vdce():
    v = quiet_testbed(seed=3, obs=Observability())
    v.start()
    return v


class TestMonitoringPipeline:
    def test_monitor_reports_reach_repository(self, vdce):
        host = vdce.world.host("syracuse/h0")
        host.true_load = 1.5
        vdce.run(until=10)
        rec = vdce.repositories["syracuse"].resource_performance.get(
            "syracuse/h0")
        assert rec.cpu_load == pytest.approx(1.5)
        assert rec.last_update > 0

    def test_load_window_accumulates(self, vdce):
        vdce.world.host("syracuse/h1").true_load = 0.7
        vdce.run(until=30)
        rec = vdce.repositories["syracuse"].resource_performance.get(
            "syracuse/h1")
        assert len(rec.load_window) >= 1

    def test_remote_site_repository_only_has_own_hosts(self, vdce):
        vdce.run(until=10)
        rome = vdce.repositories["rome"].resource_performance
        assert "rome/h0" in rome
        assert "syracuse/h0" not in rome

    def test_stable_load_suppressed_by_ci_filter(self, vdce):
        """With constant loads, after the first report the CI filter (width
        0 on constant data, but equal values are not > last +- 0) forwards
        nothing new."""
        vdce.run(until=60)
        gm = vdce.group_managers[("syracuse", "g0")]
        # every host reported many times but forwards ~ once per host
        assert gm.stats.reports_received > 3 * gm.stats.updates_forwarded

    def test_changing_load_forwarded(self, vdce):
        host = vdce.world.host("syracuse/h0")
        gm = vdce.group_managers[("syracuse", "g0")]
        vdce.run(until=10)
        before = gm.stats.updates_forwarded
        host.true_load = 5.0
        vdce.run(until=20)
        assert gm.stats.updates_forwarded > before


class _TimeoutCountingEnv(Environment):
    """An environment that counts the timeouts it hands out."""

    def __init__(self) -> None:
        super().__init__()
        self.timeouts = 0

    def timeout(self, delay, value=None):
        self.timeouts += 1
        return super().timeout(delay, value)


class TestMonitorWorkCount:
    def _monitor(self):
        env = _TimeoutCountingEnv()
        topo = Topology()
        topo.add_site("s")
        net = Network(env, topo)
        net.register("s/h1/groupmgr")
        host = Host(HostSpec(name="h0"), site="s")
        return env, host, MonitorDaemon(env, net, host, "s/h1/groupmgr",
                                        period_s=2.0)

    def test_a_monitored_host_costs_one_timeout_per_period(self):
        env, host, monitor = self._monitor()
        env.run(until=20.0)
        # ten periods fired, each arming the next: one loop, one timer
        assert env.timeouts == 11
        assert monitor.reports_sent == 10

    def test_one_tick_samples_then_ticks_the_tracker_then_watches(self):
        env, host, monitor = self._monitor()
        ticks = []

        class Tracker:
            def tick(self, now):
                ticks.append((now, monitor.reports_sent,
                              list(monitor.transitions)))

        monitor.watch_server(Tracker())
        env.run(until=2.0)
        host.up = False
        env.run(until=4.0)
        host.up = True
        env.run(until=6.0)
        # a down host neither samples nor ticks; on recovery the tick
        # sees that tick's sample but not yet the recovery transition
        assert ticks == [(2.0, 1, []), (6.0, 2, [(4.0, "crashed")])]
        assert monitor.transitions == [(4.0, "crashed"), (6.0, "recovered")]
        assert monitor.reports_sent == 3
        assert env.timeouts == 4


class TestFailureDetection:
    def test_crash_marks_repository_down(self, vdce):
        vdce.apply_fault_plan(FaultPlan((HostCrash("syracuse/h1", at=10.0),)))
        vdce.run(until=40)
        rec = vdce.repositories["syracuse"].resource_performance.get(
            "syracuse/h1")
        assert rec.status == "down"

    def test_detection_latency_bounded_by_echo_budget(self, vdce):
        vdce.apply_fault_plan(FaultPlan((HostCrash("syracuse/h1", at=12.0),)))
        vdce.run(until=60)
        downs = [r for r in vdce.tracer.query(category="gm:host-down")]
        assert downs
        latency = downs[0].time - 12.0
        budget = vdce.echo_period_s * 2 + ECHO_TIMEOUT_S * 2 + \
            vdce.echo_period_s  # miss_limit=2 rounds + phase offset
        assert 0 < latency <= budget

    def test_recovery_marks_up_again(self, vdce):
        vdce.apply_fault_plan(FaultPlan((
            HostCrash("syracuse/h2", at=10.0, recover_after=30.0),)))
        vdce.run(until=100)
        rec = vdce.repositories["syracuse"].resource_performance.get(
            "syracuse/h2")
        assert rec.status == "up"
        gm = vdce.group_managers[("syracuse", "g0")]
        assert gm.stats.recoveries_detected >= 1

    def test_echo_rtt_measured(self, vdce):
        vdce.run(until=30)
        gm = vdce.group_managers[("syracuse", "g0")]
        assert gm.stats.rtt_samples
        for samples in gm.stats.rtt_samples.values():
            assert all(0 < s < ECHO_TIMEOUT_S for s in samples)

    def test_up_hosts_never_reported_down(self, vdce):
        vdce.run(until=60)
        assert vdce.tracer.count("gm:host-down") == 0


class TestAckWaiver:
    def test_waive_forgets_the_hosts_acks_and_controllers(self):
        state = ExecutionState(
            execution_id="e1", application="app",
            expected_acks={"s/h1", "s/h2", "s/h3"},
            received_acks={"s/h1", "s/h2"},
            controllers={"s/h1/appctl", "s/h2/appctl", "s/h3/appctl"})
        state.waive(["s/h2", "s/h3"])
        assert state.expected_acks == {"s/h1"}
        assert state.received_acks == {"s/h1"}
        assert state.controllers == {"s/h1/appctl"}


class TestSiteManagerScheduling:
    def test_message_level_scheduling_round(self, vdce):
        from repro.workloads import linear_solver_graph
        g = linear_solver_graph(vdce.registry, n=30)
        sm = vdce.site_managers["syracuse"]
        proc = vdce.env.process(sm.schedule_application(g, k_remote_sites=1))
        vdce.run(until=30)
        assert proc.triggered and proc.ok
        table, report = proc.value
        assert len(table) == len(g)
        assert set(report.consulted_sites) == {"syracuse", "rome"}

    def test_k0_consults_only_local(self, vdce):
        from repro.workloads import linear_solver_graph
        g = linear_solver_graph(vdce.registry, n=30)
        sm = vdce.site_managers["syracuse"]
        proc = vdce.env.process(sm.schedule_application(g, k_remote_sites=0))
        vdce.run(until=30)
        table, report = proc.value
        assert report.consulted_sites == ["syracuse"]
        assert table.sites() == {"syracuse"}

    def test_afg_multicast_traffic_counted(self, vdce):
        from repro.net import AFG_MULTICAST, HOST_SELECTION_REPLY
        from repro.workloads import linear_solver_graph
        g = linear_solver_graph(vdce.registry, n=30)
        sm = vdce.site_managers["syracuse"]
        proc = vdce.env.process(sm.schedule_application(g, k_remote_sites=1))
        vdce.run(until=30)
        assert proc.ok
        assert vdce.network.stats.by_kind[AFG_MULTICAST] == 1
        assert vdce.network.stats.by_kind[HOST_SELECTION_REPLY] == 1

    def test_unresponsive_remote_site_dropped(self, vdce):
        """A remote site whose server never answers is skipped after the
        selection timeout instead of hanging the round."""
        from repro.workloads import linear_solver_graph
        # intercept: kill rome's site manager inbox
        vdce.site_managers["rome"].stop()
        g = linear_solver_graph(vdce.registry, n=30)
        sm = vdce.site_managers["syracuse"]
        proc = vdce.env.process(sm.schedule_application(g, k_remote_sites=1))
        vdce.run(until=SELECTION_TIMEOUT_S + 20)
        assert proc.triggered and proc.ok
        table, report = proc.value
        assert table.sites() == {"syracuse"}
