"""Tier-1 tests for the self-healing control plane (``repro.recovery``).

Chaos-grade end-to-end failover runs live in
``tests/chaos/test_server_failover.py``; this module covers the units —
the WAL and the execution-state fold, the rank-staggered failure
detector, the standby replica's held log and its roll-forward,
promotions of a standby that missed shipments, ``ServerCrash`` plan
plumbing, monotone allocation versions, and a fast in-process flapping
scenario for the rescheduling pipeline.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, HostCrash, MessageFaults, ServerCrash
from repro.net import HOST_DOWN, WAL_APPEND
from repro.recovery import (
    EXECUTION_KINDS,
    REPOSITORY_KINDS,
    WAL_KINDS,
    HeartbeatTracker,
    RecoveryCoordinator,
    WalRecord,
    WriteAheadLog,
    roll_forward,
)
from repro.repository.resource_perf import ResourcePerformanceDB
from repro.runtime.control.site_manager import (
    SELECTION_TIMEOUT_S,
    ExecutionState,
)
from repro.scheduling.allocation import AllocationEntry, ResourceAllocationTable
from repro.util.errors import ConfigurationError, NoFeasibleHostError
from repro.util.rng import RngRegistry
from repro.workloads import (
    linear_solver_graph,
    nynet_testbed,
    quiet_testbed,
    random_layered_graph,
    wide_area_testbed,
)
from tests.test_update_coalescing import run_monitored


# ---------------------------------------------------------------------------
# Write-ahead log
# ---------------------------------------------------------------------------

class TestWriteAheadLog:
    def test_lsns_are_monotone_from_start(self):
        wal = WriteAheadLog()
        records = [wal.append("start", {"execution_id": "e"}, t=float(i))
                   for i in range(5)]
        assert [r.lsn for r in records] == [1, 2, 3, 4, 5]
        assert wal.last_lsn == 5
        assert len(wal) == 5

    def test_start_lsn_continues_a_predecessor(self):
        wal = WriteAheadLog(start_lsn=41)
        assert wal.append("host-up", {"host": "s/h"}, t=0.0).lsn == 42

    def test_negative_start_lsn_rejected(self):
        with pytest.raises(ConfigurationError):
            WriteAheadLog(start_lsn=-1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            WriteAheadLog().append("made-up", {}, t=0.0)

    def test_kind_catalogue_is_partitioned(self):
        # the log carries only what a promotion reads: repository and
        # execution records
        assert set(REPOSITORY_KINDS).isdisjoint(EXECUTION_KINDS)
        assert set(WAL_KINDS) == (set(REPOSITORY_KINDS)
                                  | set(EXECUTION_KINDS))

    def test_summary_json_is_canonical_and_json_safe(self):
        wal = WriteAheadLog()
        # payloads may hold non-JSON values (numpy arrays in completion
        # reports); the digest must quote only the stable key fields
        wal.append("task-completed",
                   {"execution_id": "e1", "node_id": "n1", "host": "s/h0",
                    "outputs": {"x": np.ones(3)}}, t=1.5)
        doc = json.loads(wal.summary_json())
        assert doc == [{"execution_id": "e1", "host": "s/h0",
                        "kind": "task-completed", "lsn": 1, "node_id": "n1",
                        "t": 1.5}]
        assert wal.summary_json() == wal.summary_json()


class TestReplayExecutions:
    """``ExecutionState.fold``: the promotion-time replay of a log copy
    through the live Site Manager's own apply."""

    def _begin(self, lsn, eid):
        return WalRecord(lsn=lsn, t=0.0, kind="exec-begin", payload={
            "execution_id": eid, "application": "app",
            "expected_acks": ["s/h0", "s/h1"],
            "controllers": ["s/h0/appctl", "s/h1/appctl"],
            "total_tasks": 2, "coordinator": "s/server/sitemgr",
            "by_site": {}})

    def test_folds_full_lifecycle(self):
        records = [
            self._begin(1, "e1"),
            WalRecord(2, 1.0, "ack", {"execution_id": "e1", "host": "s/h0"}),
            WalRecord(3, 1.1, "ack", {"execution_id": "e1", "host": "s/h1"}),
            WalRecord(4, 1.2, "start", {"execution_id": "e1"}),
            WalRecord(5, 5.0, "task-completed",
                      {"execution_id": "e1", "node_id": "n1"}),
            WalRecord(6, 9.0, "task-completed",
                      {"execution_id": "e1", "node_id": "n2"}),
            WalRecord(7, 9.0, "exec-finished", {"execution_id": "e1"}),
        ]
        state = ExecutionState.fold(records)["e1"]
        assert state.expected_acks == {"s/h0", "s/h1"}
        assert state.controllers == {"s/h0/appctl", "s/h1/appctl"}
        assert state.total_tasks == 2
        assert state.received_acks == {"s/h0", "s/h1"}
        assert state.started is True
        assert state.start_signal_time == 1.2
        assert sorted(state.completed_tasks) == ["n1", "n2"]
        assert state.closed is True
        assert state.finished is None

    def test_replays_in_lsn_order_regardless_of_input_order(self):
        records = [
            WalRecord(2, 1.0, "ack", {"execution_id": "e1", "host": "s/h0"}),
            self._begin(1, "e1"),
        ]
        assert ExecutionState.fold(records)["e1"].received_acks == {"s/h0"}

    def test_gap_executions_without_begin_are_skipped(self):
        records = [
            WalRecord(9, 1.0, "ack", {"execution_id": "ghost",
                                      "host": "s/h0"}),
            WalRecord(10, 1.0, "start", {"execution_id": "ghost"}),
        ]
        assert ExecutionState.fold(records) == {}

    def test_repository_kinds_do_not_create_executions(self):
        records = [WalRecord(1, 0.0, "host-down",
                             {"host": "s/h0", "time": 0.0})]
        assert ExecutionState.fold(records) == {}

    def test_live_manager_and_fold_agree(self):
        # the state a live Site Manager holds after a run equals the
        # fold of the records it logged
        vdce = quiet_testbed(seed=5)
        vdce.start()
        vdce.enable_failover("syracuse", ["h1", "h2"])
        graph = linear_solver_graph(vdce.registry, n=16)
        run = vdce.run_application(graph, "syracuse")
        assert run.status == "completed"
        live = vdce.site_managers["syracuse"]
        [folded] = ExecutionState.fold(live.replication.wal).values()
        state = live.execution_state(run.execution_id)
        assert folded.closed and state.closed
        for name in ("execution_id", "application", "expected_acks",
                     "received_acks", "controllers", "started",
                     "start_signal_time", "completed_tasks",
                     "total_tasks", "closed"):
            assert getattr(folded, name) == getattr(state, name), name


# ---------------------------------------------------------------------------
# Standby roll-forward
# ---------------------------------------------------------------------------

def dynamic_records(repo):
    """Every dynamic field of a repository's resource records."""
    return [(rec.address, rec.cpu_load, rec.available_memory_mb,
             rec.status, rec.last_update, tuple(rec.load_window),
             tuple(rec.load_window_times))
            for rec in repo.resource_performance.all_records()]


def _task_performance(repo):
    tp = repo.task_performance
    return tp._records, tp._weights, tp._history


def rolled_forward(state, replica):
    """The repository *replica* would promote on: a copy of the site's
    snapshot rolled forward over the records it holds."""
    return roll_forward(copy.deepcopy(state.snapshot),
                        replica.ordered_records(), replica.host.address)


class TestStandbyMatchesLive:
    """A standby's roll-forward equals the live server's repository, for
    every repository kind the WAL carries."""

    def test_standbys_equal_the_live_repository(self):
        vdce = nynet_testbed(seed=5, hosts_per_site=4)
        vdce.start()
        vdce.enable_failover("syracuse", ["h2", "h3"])
        vdce.warm_up(10.0)
        vdce.apply_fault_plan(FaultPlan((
            HostCrash("syracuse/h1", at=vdce.now + 2.0,
                      recover_after=20.0),)))
        graph = random_layered_graph(vdce.registry, layers=3, width=3,
                                     size=512)
        run = vdce.run_application(graph, "syracuse")
        assert run.status == "completed"
        vdce.run(until=vdce.now + 30.0)
        live = vdce.site_managers["syracuse"]
        kinds = {rec.kind for rec in live.replication.wal}
        assert kinds >= {"workload-update", "task-completed", "host-down",
                         "host-up"}
        assert any(live.repository.task_performance._history.values())
        state = vdce.recovery.sites["syracuse"]
        assert len(state.replicas) == 2
        for replica in state.replicas:
            repository = rolled_forward(state, replica)
            assert dynamic_records(repository) == \
                dynamic_records(live.repository)
            assert _task_performance(repository) == \
                _task_performance(live.repository)

    def test_a_held_lsn_is_installed_once(self):
        vdce = quiet_testbed(seed=5)
        vdce.start()
        vdce.enable_failover("syracuse", ["h1", "h2"])
        state = vdce.recovery.sites["syracuse"]
        replica = state.replicas[0]
        sample = {"host": "syracuse/h0", "cpu_load": 0.5,
                  "available_memory_mb": 32.0, "time": 0.0}
        records = [WalRecord(lsn=1, t=0.0, kind="workload-update",
                             payload=sample),
                   WalRecord(lsn=2, t=0.0, kind="host-down",
                             payload={"host": "syracuse/h0", "time": 0.0})]
        assert replica.absorb(records) == 2
        assert replica.absorb(records) == 0
        rec = rolled_forward(state, replica).resource_performance.get(
            "syracuse/h0")
        assert rec.load_window == [0.5]
        assert rec.status == "down"
        assert replica.last_lsn() == 2

    def test_a_gap_filled_late_is_applied_in_lsn_order(self):
        vdce = quiet_testbed(seed=5)
        vdce.start()
        vdce.enable_failover("syracuse", ["h1", "h2"])
        state = vdce.recovery.sites["syracuse"]
        early, late = state.replicas
        records = [WalRecord(lsn=lsn, t=float(lsn), kind="workload-update",
                             payload={"host": "syracuse/h0",
                                      "cpu_load": lsn / 10,
                                      "available_memory_mb": 32.0,
                                      "time": float(lsn)})
                   for lsn in (1, 2, 3)]
        assert early.absorb(records) == 3
        assert late.absorb([records[0], records[2]]) == 2
        assert late.absorb([records[1]]) == 1
        for replica in (early, late):
            rec = rolled_forward(state, replica).resource_performance.get(
                "syracuse/h0")
            assert rec.load_window == [0.1, 0.2, 0.3]
            assert rec.load_window_times == [1.0, 2.0, 3.0]
        assert dynamic_records(rolled_forward(state, late)) == \
            dynamic_records(rolled_forward(state, early))
        assert late.last_lsn() == 3


def lagging_failover(lagging="h1", window_at=5.5, window_s=30.0,
                     crash_at=35.0, submit_at=None, until=70.0):
    """A failover whose standbys disagree on what they were shipped.

    NYNET (seed 5, four hosts a site) with syracuse's server protected
    by standbys h1 and h2: the *lagging* standby misses every
    ``wal-append`` from *window_at* for *window_s* seconds, and the
    server crashes at *crash_at*; h1 (rank 0) promotes.  With
    *submit_at* set, a small layered application is submitted at
    syracuse then.  Runs to *until*; returns the facade, the highest
    LSN each standby held once the promotion's state transfer was done
    (before the promoted server shipped anything), and the run (None
    without an application).
    """
    vdce = nynet_testbed(seed=5, hosts_per_site=4)
    vdce.start()
    recovery = vdce.enable_failover("syracuse", ["h1", "h2"])
    vdce.apply_fault_plan(FaultPlan((
        MessageFaults(at=window_at, duration=window_s, drop_prob=1.0,
                      kinds=(WAL_APPEND,),
                      dst_prefix=f"syracuse/{lagging}/"),
        ServerCrash("syracuse", at=crash_at))))
    standbys = list(recovery.sites["syracuse"].replicas)
    held: dict[str, int] = {}
    rewire = recovery.on_promoted

    def on_promoted(site_name, old_sm, new_sm):
        held.update((r.host.name, r.last_lsn()) for r in standbys)
        rewire(site_name, old_sm, new_sm)

    recovery.on_promoted = on_promoted
    run = None
    if submit_at is not None:
        vdce.run(until=submit_at)
        graph = random_layered_graph(vdce.registry, layers=3, width=3,
                                     size=512)
        _, run = vdce.submit(graph, "syracuse")
    vdce.run(until=until)
    return vdce, held, run


@st.composite
def lagging_failovers(draw):
    """(lagging standby, window start, window length, crash time)."""
    lagging = draw(st.sampled_from(("h1", "h2")))
    window_at = draw(st.integers(1, 30)) / 2
    crash_at = window_at + draw(st.integers(2, 30))
    # h1 promotes, so its window may outlast the crash; h2 must hear
    # every shipment of the promoted server, so its window closes by then
    longest = 40 if lagging == "h1" else int(crash_at - window_at)
    window_s = float(draw(st.integers(1, longest)))
    return lagging, window_at, window_s, crash_at


class TestLaggingPromotion:
    """A standby that missed shipments promotes from the union of what
    every standby holds, and the promoted server's WAL continues the
    site's LSN sequence, so each replica stays equal to the live
    repository."""

    def test_lagging_standby_promotes_from_the_union(self):
        # before the crash h1 held LSNs 1-4 and h2 1-31: the promoted
        # server's WAL must not reuse LSNs 5-31
        vdce, held, _ = lagging_failover()
        state = vdce.recovery.sites["syracuse"]
        assert state.history == ["syracuse/h1"]
        assert held == {"h1": 31, "h2": 31}
        live = vdce.site_managers["syracuse"]
        assert live.replication.wal.records[0].lsn == 32
        [survivor] = state.replicas
        assert survivor.last_lsn() == live.replication.wal.last_lsn
        repository = rolled_forward(state, survivor)
        assert dynamic_records(repository) == dynamic_records(live.repository)
        assert _task_performance(repository) == \
            _task_performance(live.repository)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(lagging_failovers())
    def test_replicas_equal_the_live_repository(self, case):
        lagging, window_at, window_s, crash_at = case
        # stop half-way between two load reports, with none in flight
        vdce, held, run = lagging_failover(
            lagging, window_at, window_s, crash_at, submit_at=1.0,
            until=math.floor(crash_at) + 30.5)
        state = vdce.recovery.sites["syracuse"]
        assert state.history == ["syracuse/h1"]
        assert run.status == "completed"
        live = vdce.site_managers["syracuse"]
        wal = live.replication.wal
        assert wal.records[0].lsn > max(held.values())
        for replica in state.replicas:
            assert replica.last_lsn() == wal.last_lsn
            repository = rolled_forward(state, replica)
            assert dynamic_records(repository) == \
                dynamic_records(live.repository)
            assert _task_performance(repository) == \
                _task_performance(live.repository)


class TestStandbyHoldsTheLog:
    """Until a promotion a standby only holds what it was shipped: the
    live Site Manager is the one writer of repository state, and the
    site's snapshot stays as failover found it."""

    def test_no_repository_work_before_a_promotion(self, monkeypatch):
        updated = []
        update_dynamic = ResourcePerformanceDB.update_dynamic

        def counted(db, *args, **kwargs):
            updated.append(db)
            return update_dynamic(db, *args, **kwargs)

        monkeypatch.setattr(ResourcePerformanceDB, "update_dynamic",
                            counted)
        enabled = {}
        enable_site = RecoveryCoordinator.enable_site

        def remembered(coordinator, site, sm, *args, **kwargs):
            enabled[site.name] = dynamic_records(sm.repository)
            return enable_site(coordinator, site, sm, *args, **kwargs)

        monkeypatch.setattr(RecoveryCoordinator, "enable_site", remembered)
        vdce = run_monitored(failover=True)
        state = vdce.recovery.sites["syracuse"]
        assert state.history == []
        shipped = [r for r in state.replicas[0].ordered_records()
                   if r.kind == "workload-update"]
        assert shipped
        applied = sum(sm.updates_applied
                      for sm in vdce.site_managers.values())
        assert len(updated) == applied > 0
        assert dynamic_records(state.snapshot) == enabled["syracuse"]
        assert dynamic_records(vdce.repositories["syracuse"]) != \
            enabled["syracuse"]


class TestEveryPromotionRollsTheSnapshot:
    """Each promotion rolls a copy of the site's snapshot forward over
    everything the standbys hold, re-logged completions included."""

    def test_each_promotion_starts_from_the_failed_servers_repository(
            self):
        vdce = quiet_testbed(seed=5)
        vdce.start()
        recovery = vdce.enable_failover("syracuse", ["h1", "h2"])
        vdce.apply_fault_plan(FaultPlan((
            ServerCrash("syracuse", at=10.0, recover_after=40.0),
            HostCrash("syracuse/h1", at=45.0))))
        wals, same = [], []
        rewire = recovery.on_promoted

        def on_promoted(site_name, old_sm, new_sm):
            wals.append(old_sm.replication.wal)
            same.append((dynamic_records(new_sm.repository)
                         == dynamic_records(old_sm.repository),
                         _task_performance(new_sm.repository)
                         == _task_performance(old_sm.repository)))
            rewire(site_name, old_sm, new_sm)

        recovery.on_promoted = on_promoted
        # large enough to be running when the first server crashes
        graph = linear_solver_graph(vdce.registry, n=200)
        _, run = vdce.submit(graph, "syracuse")
        vdce.run(until=90.0)
        assert run.status == "completed"
        assert recovery.sites["syracuse"].history == \
            ["syracuse/h1", "syracuse/h2"]
        assert same == [(True, True)] * 2
        # the first promoted server re-logged completions the second
        # promotion rolled forward again
        first, second = ({(r.payload["execution_id"], r.payload["node_id"])
                          for r in wal if r.kind == "task-completed"}
                         for wal in wals)
        assert first & second


# ---------------------------------------------------------------------------
# Heartbeat failure detector
# ---------------------------------------------------------------------------

class _StubHost:
    def __init__(self):
        self.up = True


class _StubReplica:
    def __init__(self):
        self.active = True
        self.host = _StubHost()
        self.last_heartbeat = 0.0


class TestHeartbeatTracker:
    def _tracker(self, rank, fired):
        replica = _StubReplica()
        tracker = HeartbeatTracker(
            replica, rank=rank, suspect_after_s=6.0, promote_grace_s=2.0,
            on_promote=lambda rep, suspected: fired.append(suspected))
        return replica, tracker

    def test_rank_staggers_the_promotion_deadline(self):
        assert self._tracker(0, [])[1].promote_after_s == 6.0
        assert self._tracker(1, [])[1].promote_after_s == 8.0
        assert self._tracker(3, [])[1].promote_after_s == 12.0

    def test_fires_only_past_the_rank_deadline(self):
        replica, tracker = self._tracker(1, fired := [])
        tracker.tick(5.0)
        assert fired == [] and tracker.suspected_at is None
        tracker.tick(6.5)      # suspected, but rank 1 waits until 8.0
        assert fired == [] and tracker.suspected_at == 6.5
        tracker.tick(8.0)
        assert fired == [6.5]  # promoted with the original suspicion time

    def test_heartbeat_clears_suspicion(self):
        replica, tracker = self._tracker(0, fired := [])
        tracker.tick(7.0)
        assert fired == [7.0]
        fired.clear()
        replica.last_heartbeat = 7.5   # beat arrived; silence resets
        tracker.tick(8.0)
        assert fired == [] and tracker.suspected_at is None

    def test_dead_standby_never_fires(self):
        replica, tracker = self._tracker(0, fired := [])
        replica.host.up = False
        tracker.tick(100.0)
        assert fired == [] and tracker.suspected_at is None

    def test_inactive_replica_never_fires(self):
        replica, tracker = self._tracker(0, fired := [])
        replica.active = False
        tracker.tick(100.0)
        assert fired == []

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            HeartbeatTracker(_StubReplica(), rank=0, suspect_after_s=0.0,
                             promote_grace_s=1.0, on_promote=lambda r, s: None)
        with pytest.raises(ConfigurationError):
            HeartbeatTracker(_StubReplica(), rank=0, suspect_after_s=1.0,
                             promote_grace_s=-1.0,
                             on_promote=lambda r, s: None)


# ---------------------------------------------------------------------------
# ServerCrash plan plumbing
# ---------------------------------------------------------------------------

class TestServerCrashSpec:
    def test_roundtrips_through_dicts(self):
        plan = FaultPlan(events=(
            ServerCrash(site="syracuse", at=10.0, recover_after=5.0),
            HostCrash(host="syracuse/h1", at=3.0),
        ))
        rebuilt = FaultPlan.from_dicts(plan.to_dicts())
        assert rebuilt.to_dicts() == plan.to_dicts()
        kinds = [doc["kind"] for doc in rebuilt.to_dicts()]
        assert "server-crash" in kinds

    def test_validation_rejects_bad_times(self):
        with pytest.raises(ConfigurationError):
            ServerCrash(site="s", at=-1.0).validate()
        with pytest.raises(ConfigurationError):
            ServerCrash(site="s", at=1.0, recover_after=0.0).validate()

    def test_random_plans_spare_servers_by_default(self):
        hosts = ["s/h1", "s/h2", "r/h1"]
        plan = FaultPlan.random(RngRegistry(5).stream("p"), hosts,
                                sites=["s", "r"], horizon_s=60.0)
        assert all(doc["kind"] != "server-crash" for doc in plan.to_dicts())

    def test_server_crashes_extend_without_disturbing_other_draws(self):
        hosts = ["s/h1", "s/h2", "r/h1"]
        base = FaultPlan.random(RngRegistry(5).stream("p"), hosts,
                                sites=["s", "r"], horizon_s=60.0)
        extended = FaultPlan.random(RngRegistry(5).stream("p"), hosts,
                                    sites=["s", "r"], horizon_s=60.0,
                                    n_server_crashes=2)
        servers = [d for d in extended.to_dicts()
                   if d["kind"] == "server-crash"]
        others = [d for d in extended.to_dicts()
                  if d["kind"] != "server-crash"]
        assert len(servers) == 2
        # the server draws happen after all other draws, so the rest of
        # the plan is byte-identical to the plan without server crashes
        assert others == base.to_dicts()


# ---------------------------------------------------------------------------
# Monotone allocation versions
# ---------------------------------------------------------------------------

def _entry(node, host):
    return AllocationEntry(node_id=node, task_name="t", site="s",
                           hosts=(host,), predicted_time_s=1.0)


class TestAllocationVersions:
    def test_assign_starts_at_one(self):
        table = ResourceAllocationTable(application="a")
        table.assign(_entry("n1", "s/h0"))
        assert table.version_of("n1") == 1

    def test_reassign_bumps_monotonically(self):
        table = ResourceAllocationTable(application="a")
        table.assign(_entry("n1", "s/h0"))
        versions = [table.version_of("n1")]
        for host in ("s/h1", "s/h0", "s/h2"):   # flap back and forth
            table.reassign(_entry("n1", host))
            versions.append(table.version_of("n1"))
        assert versions == sorted(versions) == [1, 2, 3, 4]

    def test_unassigned_task_is_version_zero(self):
        assert ResourceAllocationTable(application="a").version_of("x") == 0


# ---------------------------------------------------------------------------
# Rescheduling under host flapping (down -> up -> down)
# ---------------------------------------------------------------------------

class TestHostFlapping:
    def _run(self, seed, plan):
        vdce = quiet_testbed(seed=seed)
        vdce.start()
        vdce.apply_fault_plan(plan)
        graph = linear_solver_graph(vdce.registry, n=300)
        sites = sorted(vdce.world.sites)
        for i, nid in enumerate(graph.nodes):
            graph.node(nid).properties.preferred_site = \
                sites[i % len(sites)]
        run = vdce.run_application(graph, sites[0], k_remote_sites=1,
                                   max_sim_time_s=2000.0)
        return vdce, graph, run

    def test_flapping_host_no_duplicate_completions(self):
        # the same worker dies, recovers, and dies again mid-pipeline
        plan = FaultPlan(events=(
            HostCrash(host="syracuse/h1", at=4.0, recover_after=6.0),
            HostCrash(host="syracuse/h1", at=16.0, recover_after=8.0),
        ))
        vdce, graph, run = self._run(3, plan)
        assert run.status == "completed"
        # every task completed exactly once at the coordinator (the
        # completion map is keyed by node, so duplicates would surface
        # as inflated controller-side execution counts instead)
        assert sorted(run.completions) == sorted(graph.nodes)
        sm_state = vdce.site_managers[
            run.report.local_site].execution_state(run.execution_id)
        assert len(sm_state.completed_tasks) == len(graph)
        assert vdce.env.failed_processes == []

    def test_flapping_keeps_allocation_versions_monotone(self):
        plan = FaultPlan(events=(
            HostCrash(host="syracuse/h1", at=4.0, recover_after=6.0),
            HostCrash(host="syracuse/h1", at=16.0, recover_after=8.0),
        ))
        vdce, graph, run = self._run(3, plan)
        versions = [run.table.version_of(nid) for nid in graph.nodes]
        assert all(v >= 1 for v in versions)
        # every bump beyond the initial assignment was a reschedule the
        # facade coordinated — versions can never outrun that count
        assert sum(v - 1 for v in versions) <= run.reschedules


class TestPromotedRepository:
    """After a failover the facade reads the promoted replica."""

    def test_reschedule_sees_a_crash_after_promotion(self):
        vdce = nynet_testbed(seed=3, hosts_per_site=8)
        vdce.start()
        vdce.enable_failover("syracuse", ["h1", "h2"])
        vdce.warm_up(10.0)
        graph = linear_solver_graph(vdce.registry, n=10)
        node = graph.node("lu")
        hosts = sorted(h.address for h in vdce.world.all_hosts())
        current = AllocationEntry(
            node_id=node.node_id, task_name=node.task_name,
            site="syracuse", hosts=(hosts[0],), predicted_time_s=1.0)
        others = set(hosts) - {"syracuse/h5"}
        # the selectors are built on the pre-failover repository
        assert vdce.rescheduler.reschedule(
            node, current, exclude_hosts=others).hosts == ("syracuse/h5",)
        vdce.apply_fault_plan(FaultPlan((
            ServerCrash("syracuse", at=vdce.now + 5.0),
            HostCrash("syracuse/h5", at=vdce.now + 40.0))))
        vdce.run(until=vdce.now + 80.0)
        assert vdce.recovery.failovers == 1
        live = vdce.site_managers["syracuse"].repository
        assert vdce.repositories["syracuse"] is live
        assert live.resource_performance.get("syracuse/h5").status == "down"
        with pytest.raises(NoFeasibleHostError):
            vdce.rescheduler.reschedule(node, current, exclude_hosts=others)


class TestPromotedMailbox:
    """The promoted manager reads every message sent to the role address."""

    def test_first_message_after_promotion_is_applied(self):
        vdce = quiet_testbed(seed=5)
        vdce.start()
        vdce.enable_failover("syracuse", ["h1", "h2"])
        vdce.warm_up(5.0)
        vdce.apply_fault_plan(FaultPlan((
            ServerCrash("syracuse", at=vdce.now + 1.0),)))
        while vdce.recovery.failovers == 0:
            vdce.run(until=vdce.now + 0.5)
        assert vdce.world.site("syracuse").server_role_host == "h1"
        # the promoted manager shares the stopped one's mailbox; the
        # stopped inbox's pending get must not take the first report
        sm = vdce.site_managers["syracuse"]
        gm = vdce.group_managers[("syracuse", "g0")]
        hosts = ("syracuse/h0", "syracuse/h1", "syracuse/h2")
        for host in hosts:
            vdce.network.send(gm.address, sm.address, HOST_DOWN,
                              payload={"host": host}, size_bytes=32)
            vdce.run(until=vdce.now + 0.5)
        records = sm.repository.resource_performance
        assert [records.get(h).status for h in hosts] == ["down"] * 3


class TestPromotedCompletionRecord:
    """A run coordinated by a failed-over site reads the rebuilt record."""

    def test_run_completions_follow_the_promoted_manager(self):
        vdce = quiet_testbed(seed=101)
        vdce.start()
        vdce.enable_failover("syracuse", ["h1", "h2"])
        graph = linear_solver_graph(vdce.registry, n=200)
        process, run = vdce.submit(graph, "syracuse", k_remote_sites=1)
        vdce.apply_fault_plan(FaultPlan((ServerCrash("syracuse", at=12.0),)))
        while vdce.recovery.failovers == 0:
            vdce.run(until=vdce.now + 0.5)
        promoted = vdce.site_managers["syracuse"]
        assert run.status == "running"
        assert run.completions is promoted.execution_state(
            run.execution_id).completed_tasks
        while not process.triggered:
            vdce.run(until=vdce.now + 5.0)
        assert run.status == "completed"
        assert sorted(run.completions) == sorted(graph.nodes)


class TestPromotedSiteFilter:
    """A promoted Site Manager keeps excluding quarantined sites."""

    def test_promoted_manager_skips_a_quarantined_site(self):
        vdce = wide_area_testbed(n_sites=3, hosts_per_site=4, seed=3,
                                 ring=True)
        vdce.start()
        vdce.enable_membership()
        vdce.enable_failover("site0", ["h1", "h2"])
        vdce.warm_up(10.0)
        vdce.apply_fault_plan(FaultPlan((
            ServerCrash("site0", at=vdce.now + 2.0),
            ServerCrash("site2", at=vdce.now + 40.0))))
        vdce.run(until=vdce.now + 80.0)
        assert vdce.recovery.failovers == 1
        assert vdce.federation.quarantined("site0") == ["site2"]
        sm = vdce.site_managers["site0"]
        assert sm.site_filter is not None
        assert not sm.site_filter("site2")
        # an unfiltered round would multicast to site2 and wait out the
        # whole selection timeout for a reply that never comes
        graph = linear_solver_graph(vdce.registry, n=40, seed=1)
        _, run = vdce.submit(graph, "site0", k_remote_sites=2)
        while run.table is None:
            vdce.run(until=vdce.now + 0.01)
        assert run.scheduling_time < SELECTION_TIMEOUT_S / 10
        assert "site2" not in run.report.consulted_sites
