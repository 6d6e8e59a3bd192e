"""Failover orchestration: enable replication, execute promotions.

One :class:`RecoveryCoordinator` per federation (owned by the VDCE
facade).  :meth:`enable_site` turns a site's control plane
self-healing: it takes one snapshot of the server's repository, starts
a standby replica (a held log) on each standby host, attaches the WAL
shipper to the live Site Manager, starts the server heartbeat, and
registers rank-staggered
:class:`~repro.recovery.failover.HeartbeatTracker` detectors with the
standby hosts' monitors.

:meth:`promote` is the failover itself, run synchronously at the
simulated instant the winning detector fires:

1. **fence** — stop the old Site Manager's inbox and heartbeat (the old
   machine never reclaims the role, even if it recovers);
2. **move the role** — ``site.server_role_host`` points at the standby,
   so the stable ``site/server/...`` addresses now route liveness to it
   (clients and daemons keep their addressing);
3. **rebuild** — the standby takes the records it lacks from each
   survivor, a copy of the site's snapshot is rolled forward over that
   union of the shipped logs
   (:func:`~repro.recovery.replication.roll_forward`), and a fresh Site
   Manager runs over it, with execution state folded from the same
   union (:meth:`~repro.runtime.control.site_manager.ExecutionState.fold`):
   pending acks, start signals and completions are restored, acks of
   dead hosts waived, allocation portions re-pushed (the Application
   Controllers deduplicate, so re-pushes are idempotent and tasks run
   exactly once), and the client's completion future re-attached;
4. **re-arm** — surviving standbys take the union, get a new shipper
   (continuing the site's LSN sequence) and heartbeat from the
   promoted server, and re-rank so a second failover works the same.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.net import SERVER_PROMOTED
from repro.net.network import Network
from repro.net.topology import Topology
from repro.obs import OBS_OFF, Observability
from repro.recovery.failover import (
    HEARTBEAT_PERIOD_S,
    HeartbeatTracker,
    ServerHeartbeatDaemon,
)
from repro.recovery.replication import (
    ReplicationShipper,
    StandbyReplica,
    roll_forward,
)
from repro.recovery.wal import WalRecord
from repro.repository.site_repository import SiteRepository
from repro.resources.site import Site
from repro.runtime.control.site_manager import ExecutionState, SiteManager
from repro.simcore.engine import Environment
from repro.util.errors import ConfigurationError

#: missed beats before a standby suspects the server
MISS_LIMIT = 3
#: extra silence each lower-ranked standby waits before promoting
PROMOTE_GRACE_S = 2.0


@dataclass
class SiteFailoverState:
    """Everything the coordinator tracks for one protected site."""

    site: Site
    sm: SiteManager
    heartbeat: ServerHeartbeatDaemon
    replicas: list[StandbyReplica]
    monitors: dict[str, Any]
    #: the server's repository as failover was enabled, never mutated:
    #: every promotion rolls a copy of it forward over the held log
    snapshot: SiteRepository
    #: the host address of each promoted standby, in order
    history: list[str] = field(default_factory=list)


class RecoveryCoordinator:
    """Per-federation failover brain (wired by ``VDCE.enable_failover``)."""

    def __init__(self, env: Environment, network: Network,
                 topology: Topology,
                 obs: Observability | None = None) -> None:
        self.env = env
        self.network = network
        self.topology = topology
        self.obs = obs if obs is not None else OBS_OFF
        self.sites: dict[str, SiteFailoverState] = {}
        self.failovers = 0
        #: facade hook: called as (site_name, old_sm, new_sm) after a
        #: promotion so the facade can wire the new manager (its hooks
        #: and site filter) and reconcile in-flight runs
        self.on_promoted: Callable[[str, SiteManager, SiteManager],
                                   None] | None = None

    # -- enabling ----------------------------------------------------------
    def enable_site(self, site: Site, sm: SiteManager,
                    standby_hosts: list[str],
                    monitors: dict[str, Any]) -> list[StandbyReplica]:
        """Protect one site with the given standby hosts.

        *standby_hosts* are bare host names at *site*; *monitors* maps
        host addresses to their MonitorDaemon (the facade's registry) so
        each standby's sampling loop can tick its failure detector.
        """
        if site.name in self.sites:
            raise ConfigurationError(
                f"failover already enabled for site {site.name!r}")
        if not standby_hosts:
            raise ConfigurationError(
                f"no standby hosts given for site {site.name!r}")
        # site.host raises on an unknown host
        replicas = [StandbyReplica(self.env, self.network,
                                   site.host(host_name))
                    for host_name in sorted(standby_hosts)]
        standby_addrs = [r.address for r in replicas]
        sm.replication = ReplicationShipper(self.env, self.network,
                                            sm.address, standby_addrs)
        heartbeat = ServerHeartbeatDaemon(
            self.env, self.network, site, standby_addrs)
        state = SiteFailoverState(
            site=site, sm=sm, heartbeat=heartbeat, replicas=replicas,
            monitors=monitors, snapshot=copy.deepcopy(sm.repository))
        self._attach_trackers(state)
        self.sites[site.name] = state
        if self.obs.enabled:
            self.obs.trace.record(self.env.now, "rec:enabled", sm.address,
                                  site=site.name,
                                  standbys=sorted(standby_addrs))
        return replicas

    def _attach_trackers(self, state: SiteFailoverState) -> None:
        """(Re-)rank the live standbys: lowest address gets rank 0."""
        for rank, replica in enumerate(
                sorted(state.replicas, key=lambda r: r.address)):
            tracker = HeartbeatTracker(
                replica, rank=rank,
                suspect_after_s=MISS_LIMIT * HEARTBEAT_PERIOD_S,
                promote_grace_s=PROMOTE_GRACE_S,
                on_promote=lambda rep, suspected, s=state.site.name:
                    self.promote(s, rep, suspected))
            monitor = state.monitors.get(replica.host.address)
            if monitor is not None:
                monitor.watch_server(tracker)

    # -- the failover -------------------------------------------------------
    def promote(self, site_name: str, replica: StandbyReplica,
                suspected_at: float) -> SiteManager | None:
        """Promote *replica* to site server; returns the new manager.

        Returns None when the promotion is refused: the replica is
        stale (a peer already won) or the current role-holder is in
        fact alive (fencing — a detector firing on lost heartbeats
        must not create a second server).
        """
        state = self.sites.get(site_name)
        if state is None or replica not in state.replicas \
                or not replica.active:
            return None
        site = state.site
        if site.server_is_up():
            return None  # fencing: role-holder alive, detector misfired
        old_sm = state.sm
        # 1. fence the failed role-holder
        state.heartbeat.stop()
        old_sm.stop()
        monitor = state.monitors.get(replica.host.address)
        if monitor is not None:
            monitor.watch_server(None)
        replica.stop()  # this standby daemon becomes the server
        # 2. move the server role onto the standby host
        site.server_role_host = replica.host.name
        # 3. take what the survivors hold and this replica missed, roll
        # a copy of the snapshot forward over that union, and rebuild
        # the Site Manager on it; the stable role address means nothing
        # else re-learns an address
        survivors = [r for r in state.replicas
                     if r is not replica and r.active]
        for peer in survivors:
            replica.absorb(peer.ordered_records())
        records = replica.ordered_records()
        repository = roll_forward(copy.deepcopy(state.snapshot), records,
                                  replica.host.address)
        new_sm = SiteManager(self.env, self.network, site, repository,
                             self.topology, obs=self.obs)
        # Group Managers re-register here, not in the facade's wiring:
        # step 5 pushes through them before on_promoted runs
        for gm in old_sm.group_managers.values():
            new_sm.register_group_manager(gm)
        # 4. re-arm the survivors: the union of the logs, then a shipper
        # continuing the site's LSN sequence after its highest LSN
        for peer in survivors:
            peer.absorb(records)
            self.network.send(new_sm.address, peer.address,
                              SERVER_PROMOTED,
                              payload={"site": site_name,
                                       "host": replica.host.address},
                              size_bytes=48)
        new_sm.replication = ReplicationShipper(
            self.env, self.network, new_sm.address,
            [r.address for r in survivors],
            start_lsn=replica.last_lsn())
        heartbeat = ServerHeartbeatDaemon(
            self.env, self.network, site, [r.address for r in survivors])
        # 5. reconstruct execution state from the shipped log
        rebuilt = self._reconstruct(new_sm, old_sm, records)
        state.sm = new_sm
        state.heartbeat = heartbeat
        state.replicas = survivors
        self._attach_trackers(state)
        state.history.append(replica.host.address)
        self.failovers += 1
        obs = self.obs
        if obs.enabled:
            obs.trace.record(self.env.now, "rec:promoted", new_sm.address,
                             site=site_name, host=replica.host.address,
                             executions=len(rebuilt),
                             wal_records=len(records))
            obs.metrics.counter(
                "failovers_total",
                help="server failovers (standby promotions)").inc(
                    site=site_name)
            span = obs.spans.begin(
                f"failover:{site_name}", "failover", new_sm.address,
                suspected_at, host=replica.host.address)
            obs.spans.end(span, self.env.now, executions=len(rebuilt))
        if self.on_promoted is not None:
            self.on_promoted(site_name, old_sm, new_sm)
        return new_sm

    def _reconstruct(self, new_sm: SiteManager, old_sm: SiteManager,
                     records: list[WalRecord]) -> list[ExecutionState]:
        """Rebuild the unfinished executions *records* fold to."""
        executions = ExecutionState.fold(records)
        begins = {record.payload["execution_id"]: record.payload
                  for record in records if record.kind == "exec-begin"}
        resource_perf = new_sm.repository.resource_performance
        rebuilt: list[ExecutionState] = []
        for execution_id in sorted(executions):
            state = executions[execution_id]
            if state.closed:
                continue
            old_state = old_sm._executions.get(execution_id)
            if old_state is not None and old_state.finished is not None \
                    and not old_state.finished.triggered:
                # the submitting client re-attaches its completion future
                state.finished = old_state.finished
            else:
                state.finished = self.env.event()
            new_sm._executions[execution_id] = state
            begin = begins[execution_id]
            self._relog(new_sm, begin, state)
            # waive acks of hosts the replica already knows are down
            # (their Group Manager will not re-report an old failure)
            if not state.started:
                state.waive(
                    host for host in sorted(state.expected_acks
                                            - state.received_acks)
                    if host in resource_perf
                    and resource_perf.get(host).status == "down")
            # re-push every portion; the Application Controllers dedup
            # by (execution, node), so completed or running tasks are
            # not re-executed and lost pushes are healed
            new_sm.push_portions(begin["by_site"], state.application,
                                 execution_id)
            if state.started:
                new_sm.resend_start(state)
            else:
                new_sm._maybe_start(state)
            if len(state.completed_tasks) >= state.total_tasks and \
                    state.finished is not None and \
                    not state.finished.triggered:
                # every completion was already in the log; only the
                # client notification was lost with the old server
                state.finished.succeed(dict(state.completed_tasks))
            rebuilt.append(state)
        return rebuilt

    @staticmethod
    def _relog(new_sm: SiteManager, begin: dict[str, Any],
               state: ExecutionState) -> None:
        """Write the rebuilt execution onto the new server's WAL.

        The survivors follow the new shipper, so a *second* failover
        replays this execution exactly like the first one did.
        """
        shipper = new_sm.replication
        shipper.log("exec-begin", begin)
        for host in sorted(state.received_acks):
            shipper.log("ack", {"execution_id": state.execution_id,
                                "host": host})
        if state.started:
            shipper.log("start", {"execution_id": state.execution_id})
        for node_id in sorted(state.completed_tasks):
            shipper.log("task-completed", state.completed_tasks[node_id])
