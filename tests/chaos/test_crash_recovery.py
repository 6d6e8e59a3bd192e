"""The ISSUE acceptance scenario, pinned as a deterministic test.

A drop window on channel-setup messages forces the Data Manager through
its retry ladder; a host crash injected mid-run kills the machine running
the exit task.  The application must still complete via rescheduling,
and the post-mortem archive must show the crash, the retries, and the
reassignment.
"""

import pytest

from repro.faults import FaultPlan, HostCrash, MessageFaults
from repro.obs import Observability
from repro.viz.postmortem import RunArchive
from repro.workloads import linear_solver_graph, quiet_testbed


@pytest.fixture(scope="module")
def recovered_run():
    v = quiet_testbed(seed=101, obs=Observability())
    v.start()
    # Window 1: drop every channel-setup for the first 4 simulated
    # seconds.  The default retry ladder (1 + 2 + 4 s) resends until the
    # fourth attempt lands outside the window.
    v.apply_fault_plan(FaultPlan(events=(
        MessageFaults(at=0.0, duration=4.0, drop_prob=1.0,
                      kinds=("channel-setup",)),
    )))
    g = linear_solver_graph(v.registry, n=200)
    sites = sorted(v.world.sites)
    for i, nid in enumerate(g.nodes):
        g.node(nid).properties.preferred_site = sites[i % 2]
    process, run = v.submit(g, "syracuse", k_remote_sites=1)
    while run.table is None:
        v.env.run(until=v.now + 0.5)
    victim = run.table.get("verify").host
    # Window 2 (installed mid-run): crash the exit task's host while the
    # pipeline is still executing upstream tasks.
    v.apply_fault_plan(FaultPlan(events=(
        HostCrash(host=victim, at=v.now + 12.0),
    )))
    deadline = v.now + 2000
    while not process.triggered and v.now < deadline:
        v.env.run(until=v.now + 5.0)
    return v, run, victim


class TestCrashRecoveryAcceptance:
    def test_application_completes_despite_crash(self, recovered_run):
        v, run, victim = recovered_run
        assert run.status == "completed"
        assert len(run.completions) == len(run.graph)
        assert v.env.failed_processes == []

    def test_exit_task_reassigned_off_dead_host(self, recovered_run):
        _, run, victim = recovered_run
        assert run.reschedules >= 1
        assert run.table.get("verify").host != victim

    def test_retries_actually_happened(self, recovered_run):
        v, _, _ = recovered_run
        retries = sum(dm.stats.retries for dm in v.data_managers.values())
        assert retries >= 1
        assert v.tracer.count("dm:retry") == retries

    def test_postmortem_shows_crash_retries_and_reassignment(
            self, recovered_run):
        v, run, victim = recovered_run
        archive = RunArchive.from_run(run, tracer=v.tracer)
        categories = {row["category"] for row in archive.trace}
        assert "fault:host-down" in categories        # the crash
        assert "dm:retry" in categories               # the retries
        assert "vdce:rescheduled" in categories       # the reassignment
        downs = [row for row in archive.trace
                 if row["category"] == "fault:host-down"]
        assert any(row["detail"]["host"] == victim for row in downs)

    def test_monitor_observed_local_crash(self, recovered_run):
        v, _, victim = recovered_run
        monitor = v.monitors[victim]
        assert [kind for _, kind in monitor.transitions] == ["crashed"]
