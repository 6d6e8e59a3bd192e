"""The VDCE facade: build an environment, submit applications, run them.

This ties the three paper modules together exactly as Figure 2 draws
them: the Application Editor produces an AFG; the Application Scheduler
(per-site, message-coordinated) maps it; the Runtime System (Site
Manager -> Group Managers -> Application Controllers + Data Managers)
executes it and feeds measurements back into the site repositories.

Typical use::

    vdce = VDCE(seed=1)
    vdce.add_site("syracuse")
    vdce.add_site("rome")
    vdce.connect_sites("syracuse", "rome", ATM_OC3)
    vdce.add_host("syracuse", HostSpec(name="h0", ...))
    ...
    vdce.start()
    editor = vdce.open_editor("alice", "pw", "my-app")
    ... build the graph ...
    run = vdce.run_application(editor.submit(), local_site="syracuse")
    print(run.makespan, run.results())
"""

from __future__ import annotations

from typing import Any

from repro.afg.editor import ApplicationEditor, EditorSession
from repro.afg.graph import ApplicationFlowGraph
from repro.faults import FaultInjector, FaultPlan
from repro.federation import (
    DirectorySync,
    Federation,
    MembershipDaemon,
)
from repro.net.topology import LinkSpec
from repro.obs import OBS_OFF, Observability
from repro.prediction.calibration import provision_site
from repro.recovery import RecoveryCoordinator
from repro.repository.site_repository import SiteRepository
from repro.resources.groundtruth import ExecutionModel
from repro.resources.host import Host, HostSpec
from repro.resources.loads import OnOffLoad, RandomWalkLoad
from repro.resources.site import VDCEnvironment
from repro.runtime.control.app_controller import ApplicationController
from repro.runtime.control.change_filter import ChangeFilter
from repro.runtime.control.group_manager import GroupManager
from repro.runtime.control.monitor import MonitorDaemon
from repro.runtime.control.site_manager import SiteManager
from repro.runtime.data.data_manager import DataManager
from repro.scheduling.host_selection import HostSelector
from repro.scheduling.qos import QoSRequirement, require_admission
from repro.scheduling.rescheduling import ReschedulePolicy, Rescheduler
from repro.simcore.trace import Tracer
from repro.tasklib.registry import LibraryRegistry
from repro.tasklib import standard_registry
from repro.core.run import ApplicationRun
from repro.util.errors import (
    ConfigurationError,
    QoSViolationError,
    VDCEError,
)

#: how often a leaving site's drain checks for work still involving it
LEAVE_POLL_PERIOD_S = 1.0

#: sim-time step in which :meth:`VDCE.run_application` and the workload
#: player advance the clock while they wait for applications to finish
RUN_STEP_S = 5.0


class VDCE:
    """A complete simulated Virtual Distributed Computing Environment."""

    def __init__(self, seed: int = 0,
                 registry: LibraryRegistry | None = None,
                 monitor_period_s: float = 2.0,
                 echo_period_s: float = 5.0,
                 filter_policy: str = "ci",
                 reschedule_policy: ReschedulePolicy | None = None,
                 obs: Observability | None = None) -> None:
        self.world = VDCEnvironment(seed=seed)
        #: observability handle threaded through every daemon: metrics,
        #: spans and the flat trace log; inert (the shared OBS_OFF
        #: singleton) unless one is supplied.
        self.obs = obs if obs is not None else OBS_OFF
        self.world.network.set_observability(self.obs)
        self.registry = registry or standard_registry()
        self.model = ExecutionModel(seed=seed)
        self.monitor_period_s = monitor_period_s
        self.echo_period_s = echo_period_s
        self.filter_policy = filter_policy
        self.reschedule_policy = reschedule_policy or ReschedulePolicy()
        self.fault_injector: FaultInjector | None = None
        #: failover brain, created lazily by :meth:`enable_failover`
        self.recovery: RecoveryCoordinator | None = None
        #: federation membership view, created by :meth:`enable_membership`
        self.federation: Federation | None = None
        self.repositories: dict[str, SiteRepository] = {}
        #: each site's one host-selection view: its Site Manager's
        #: selector, which scheduling rounds and reschedules both read
        self.selectors: dict[str, HostSelector] = {}
        self.rescheduler = Rescheduler(self.selectors)
        self.site_managers: dict[str, SiteManager] = {}
        self.group_managers: dict[tuple[str, str], GroupManager] = {}
        self.monitors: dict[str, MonitorDaemon] = {}
        self.data_managers: dict[str, DataManager] = {}
        self.app_controllers: dict[str, ApplicationController] = {}
        self.load_models: list[Any] = []
        self._byte_orders: dict[str, str] = {}
        self._active_runs: dict[str, ApplicationRun] = {}
        self._execution_seq = 0
        self._started = False

    # -- shared plumbing shortcuts ----------------------------------------
    @property
    def env(self):
        return self.world.env

    @property
    def network(self):
        return self.world.network

    @property
    def topology(self):
        return self.world.topology

    @property
    def tracer(self) -> Tracer:
        """The flat trace log of an observed run (``obs.trace``).

        Raises :class:`ConfigurationError` unless the VDCE was built
        with an enabled :class:`Observability`: an unobserved run
        records nothing, and reading its empty log would let a query
        for a missing record pass.
        """
        if not self.obs.enabled:
            raise ConfigurationError(
                "this VDCE records no trace; build it with "
                "obs=Observability() to read one")
        return self.obs.trace

    @property
    def now(self) -> float:
        return self.env.now

    # -- construction (before start) -----------------------------------------
    def _require_not_started(self, what: str) -> None:
        if self._started:
            raise ConfigurationError(f"{what} must happen before start()")

    def add_site(self, name: str, lan: LinkSpec | None = None):
        """Declare a VDCE site (before start())."""
        self._require_not_started("add_site")
        return self.world.add_site(name, lan=lan)

    def connect_sites(self, a: str, b: str, link: LinkSpec) -> None:
        """Add a WAN link between two declared sites (before start())."""
        self._require_not_started("connect_sites")
        self.world.connect_sites(a, b, link)

    def add_host(self, site: str, spec: HostSpec) -> Host:
        """Register a machine at a site (before start())."""
        self._require_not_started("add_host")
        return self.world.add_host(site, spec)

    def attach_background_load(self, host_address: str,
                               kind: str = "random-walk",
                               **kwargs) -> None:
        """Give one host a synthetic time-sharing load process."""
        host = self.world.host(host_address)
        rng = self.world.rng.stream(f"load:{host_address}")
        if kind == "random-walk":
            model = RandomWalkLoad(self.env, host, rng, **kwargs)
        elif kind == "on-off":
            model = OnOffLoad(self.env, host, rng, **kwargs)
        else:
            raise ConfigurationError(f"unknown load kind {kind!r}")
        self.load_models.append(model)

    # -- start: bring up every daemon ------------------------------------------
    def start(self, calibration_coverage: float = 1.0,
              constrain: dict[str, set[str]] | None = None,
              add_default_user: bool = True) -> None:
        """Populate repositories and launch the runtime daemons.

        *constrain* optionally maps task name -> host addresses holding
        its executable (default: every task installed everywhere).
        """
        if self._started:
            raise ConfigurationError("VDCE already started")
        if not self.world.sites:
            raise ConfigurationError("no sites configured")
        definitions = self.registry.all_tasks()
        for host in self.world.all_hosts():
            self._byte_orders[host.address] = host.spec.byte_order
        for site_name, site in self.world.sites.items():
            repo = self._build_site_repository(
                site_name, site, definitions,
                calibration_coverage=calibration_coverage,
                constrain=constrain, add_default_user=add_default_user)
            self.repositories[site_name] = repo
            sm = self._bring_up_site(site_name, site, repo)
            self._start_site_daemons(site_name, site, sm)
        self._started = True

    def _build_site_repository(self, site_name: str, site,
                               definitions,
                               calibration_coverage: float = 1.0,
                               constrain: dict[str, set[str]] | None = None,
                               add_default_user: bool = True
                               ) -> SiteRepository:
        """Populate one site's repository (start() and site_join share it)."""
        repo = SiteRepository(site_name)
        provision_site(
            repo, list(site.hosts.values()), definitions, self.model,
            constrain=constrain, coverage=calibration_coverage,
            rng=self.world.rng.stream(f"calibration:{site_name}"))
        if add_default_user:
            repo.user_accounts.add_user("vdce", "vdce",
                                        access_domain="multi-site")
        return repo

    def _bring_up_site(self, site_name: str, site,
                       repo: SiteRepository) -> SiteManager:
        """Create and wire one Site Manager (facade hooks included)."""
        sm = SiteManager(self.env, self.network, site, repo,
                         self.topology, obs=self.obs)
        self._wire(site_name, sm)
        return sm

    def _wire(self, site_name: str, sm: SiteManager) -> None:
        """Make *sm* the manager of *site_name* and install the facade hooks.

        The one place a Site Manager gets its hooks, whether it was
        brought up, joined membership, or promoted by a failover; its
        selector becomes the site's entry in :attr:`selectors`.
        """
        sm.on_reschedule_request = self._handle_reschedule_request
        # host-down hook: reroute lost tasks of active executions
        sm.on_host_down = self._handle_host_down
        if self.federation is not None:
            sm.site_filter = self.federation.usable_filter(site_name)
        self.site_managers[site_name] = sm
        self.selectors[site_name] = sm.selector

    def _start_site_daemons(self, site_name: str, site, sm: SiteManager
                            ) -> None:
        for group, members in site.groups.items():
            leader = site.group_leader(group)
            gm = GroupManager(
                self.env, self.network, site_name, group, leader,
                member_hosts=[f"{site_name}/{m}" for m in members],
                site_manager_addr=sm.address,
                echo_period_s=self.echo_period_s,
                change_filter=ChangeFilter(policy=self.filter_policy),
                obs=self.obs)
            sm.register_group_manager(gm)
            self.group_managers[(site_name, group)] = gm
            for member in members:
                host = site.host(member)
                self.monitors[host.address] = MonitorDaemon(
                    self.env, self.network, host, gm.address,
                    period_s=self.monitor_period_s, obs=self.obs)
                dm = DataManager(self.env, self.network, host,
                                 byte_orders=self._byte_orders,
                                 obs=self.obs)
                self.data_managers[host.address] = dm
                self.app_controllers[host.address] = ApplicationController(
                    self.env, self.network, host, self.registry, self.model,
                    dm, gm.address, policy=self.reschedule_policy,
                    obs=self.obs)

    # -- editor access -----------------------------------------------------
    def open_editor(self, user: str, password: str,
                    application_name: str = "application",
                    site: str | None = None) -> ApplicationEditor:
        """Authenticate against a site's user-accounts DB, open the editor."""
        if not self._started:
            raise ConfigurationError("start() the VDCE before opening editors")
        site = site or sorted(self.repositories)[0]
        session = EditorSession(self.repositories[site].user_accounts,
                                self.registry)
        session.login(user, password)
        return session.open_editor(application_name)

    # -- submission ------------------------------------------------------------
    def submit(self, graph: ApplicationFlowGraph, local_site: str,
               k_remote_sites: int = 1,
               qos: QoSRequirement | None = None,
               queue_aware: bool = False):
        """Submit an application; returns ``(process, run)``.

        The process performs scheduling, QoS admission, distribution, and
        completion tracking; drive the simulation with
        :meth:`run_application` (or run the env yourself and inspect the
        returned :class:`ApplicationRun` as it fills in).
        """
        if not self._started:
            raise ConfigurationError("start() the VDCE before submitting")
        if local_site not in self.site_managers:
            raise ConfigurationError(f"unknown site {local_site!r}")
        graph.validate()
        self._execution_seq += 1
        execution_id = f"exec-{self._execution_seq}"
        run = ApplicationRun(execution_id=execution_id, graph=graph,
                             table=None, report=None,  # type: ignore[arg-type]
                             submitted_at=self.now, status="running")
        self._active_runs[execution_id] = run
        obs = self.obs
        app_span = None
        if obs.enabled:
            app_span = obs.spans.begin(
                graph.name, "application", local_site, self.now,
                execution_id=execution_id)
            obs.spans.bind(("app", execution_id), app_span)
            obs.metrics.counter(
                "vdce_apps_submitted_total",
                help="applications submitted").inc(site=local_site)

        def proc(env):
            sm = self.site_managers[local_site]
            round_span = None
            if obs.enabled:
                round_span = obs.spans.begin(
                    f"schedule:{graph.name}", "schedule-round", sm.address,
                    env.now, parent_id=app_span)
            table, report = yield from sm.schedule_application(
                graph, k_remote_sites=k_remote_sites,
                queue_aware=queue_aware)
            if obs.enabled and round_span is not None:
                obs.spans.end(round_span, env.now,
                              sites=len(report.consulted_sites),
                              tasks=len(table))
            run.table, run.report = table, report
            run.scheduled_at = env.now
            if qos is not None:
                try:
                    require_admission(graph, table, self.topology, qos)
                except QoSViolationError:
                    # never admitted: host-down and partition handling
                    # skip the run, so none of its tasks executes
                    run.status = "rejected"
                    raise
            state = sm.distribute_allocation(
                table, execution_id, graph,
                max_host_load=(qos.max_host_load if qos is not None
                               else None))
            # the live record every sweep reads while the run is going
            run.completions = state.completed_tasks
            completions = yield state.finished
            run.started_at = (state.start_signal_time
                              if state.start_signal_time is not None
                              else run.scheduled_at)
            run.completions = dict(completions)
            run.finished_at = env.now
            run.status = "completed"
            if obs.enabled and app_span is not None:
                obs.spans.end(app_span, env.now,
                              tasks=len(run.completions))
                obs.metrics.counter(
                    "vdce_apps_completed_total",
                    help="applications run to completion").inc(
                        site=local_site)
            return run

        process = self.env.process(proc(self.env),
                                   name=f"submit:{graph.name}")
        return process, run

    def run_application(self, graph: ApplicationFlowGraph, local_site: str,
                        k_remote_sites: int = 1,
                        qos: QoSRequirement | None = None,
                        max_sim_time_s: float = 3600.0,
                        queue_aware: bool = False) -> ApplicationRun:
        """Submit and drive the simulation until completion (or timeout).

        The environment's periodic daemons never let the event queue
        drain, so completion is awaited in bounded steps rather than with
        ``run(until=event)``.
        """
        process, run = self.submit(graph, local_site,
                                   k_remote_sites=k_remote_sites, qos=qos,
                                   queue_aware=queue_aware)
        deadline = self.now + max_sim_time_s
        while not process.triggered and self.now < deadline:
            self.env.run(until=min(self.now + RUN_STEP_S, deadline))
        if process.triggered:
            if not process.ok:
                run.status = "rejected"
                raise process.exception  # type: ignore[misc]
        else:
            run.status = "timeout"
        return run

    # -- dynamic rescheduling (facade-level coordination) ------------------------
    def _handle_reschedule_request(self, payload: dict) -> None:
        execution_id = payload["execution_id"]
        run = self._active_runs.get(execution_id)
        if run is None or run.table is None:
            return
        entry_payload = dict(payload["entry"])
        node_id = entry_payload["node_id"]
        if node_id in run.completions:
            return  # completed elsewhere in the meantime
        attempt = entry_payload.get("attempt", 0) + 1
        node = run.graph.node(node_id)
        current = run.table.get(node_id)
        exclude = {payload["host"]}
        # degraded mode: never re-queue into a partition — the request's
        # own excluded sites plus whatever the coordinating site's
        # membership view currently quarantines
        exclude_sites = set(payload.get("exclude_sites") or ())
        if self.federation is not None:
            exclude_sites.update(
                self.federation.quarantined(run.report.local_site))
        forced = attempt > self.reschedule_policy.max_attempts
        try:
            new_entry = self.rescheduler.reschedule(
                node, current, exclude_hosts=exclude,
                exclude_sites=exclude_sites)
        except VDCEError:
            # nowhere to go: force re-execution where it was
            new_entry = current
            forced = True
        run.table.reassign(new_entry) if new_entry is not current else None
        run.reschedules += 1
        local_site = run.report.local_site
        sm = self.site_managers[local_site]
        sm.push_task(run.graph, run.table, new_entry, execution_id,
                     forward_inputs=payload.get("inputs") or {},
                     attempt=attempt, forced=forced)
        if self.obs.enabled:
            self.obs.trace.record(self.now, "vdce:rescheduled", sm.address,
                                  node=node_id, to=new_entry.host,
                                  attempt=attempt)
            self.obs.metrics.counter(
                "vdce_reschedules_total",
                help="facade-coordinated task reschedules").inc(
                    site=local_site)

    def _handle_host_down(self, host: str) -> None:
        """Reroute unfinished tasks assigned to a failed host."""
        for run, entry in self._unfinished():
            if host in entry.hosts:
                self._reroute(run, entry, host)

    def _reroute(self, run: ApplicationRun, entry, host: str,
                 exclude_sites: tuple[str, ...] = ()) -> None:
        """Reschedule *entry* away from *host*, its inputs lost.

        Inputs held on a dead machine or behind a partition are gone, so
        the task re-runs in simulation mode (values regenerate only for
        entry tasks, whose inputs are parameters).
        """
        node = run.graph.node(entry.node_id)
        self._handle_reschedule_request({
            "execution_id": run.execution_id,
            "entry": {"node_id": entry.node_id,
                      "task_name": entry.task_name},
            "host": host, "inputs": {port: None for port in node.input_ports},
            "exclude_sites": list(exclude_sites),
        })

    # -- self-healing control plane (server failover) -----------------------------
    def enable_failover(self, site: str,
                        standby_hosts: list[str]) -> RecoveryCoordinator:
        """Replicate *site*'s server state onto *standby_hosts*.

        Every mutating Site Manager operation is write-ahead-logged and
        shipped to the standbys; if the server machine goes silent for
        ``MISS_LIMIT`` heartbeat periods (constants of
        :mod:`repro.recovery.coordinator`), the lowest-address live standby
        promotes itself (after its rank-staggered grace), rebuilds the
        execution state from the log, and in-flight applications finish
        exactly once.  May be enabled per site; returns the shared
        :class:`~repro.recovery.RecoveryCoordinator`.
        """
        if not self._started:
            raise ConfigurationError(
                "start() the VDCE before enable_failover")
        if site not in self.site_managers:
            raise ConfigurationError(f"unknown site {site!r}")
        if self.recovery is None:
            self.recovery = RecoveryCoordinator(
                self.env, self.network, self.topology, obs=self.obs)
            self.recovery.on_promoted = self._on_server_promoted
        self.recovery.enable_site(
            self.world.site(site), self.site_managers[site],
            standby_hosts, self.monitors)
        return self.recovery

    def _on_server_promoted(self, site_name: str, old_sm: SiteManager,
                            new_sm: SiteManager) -> None:
        """Swap the facade's manager and repository maps, heal in-flight work.

        Rescheduling then prices the site from the promoted manager's
        selector over its repository (the site's snapshot rolled forward
        at promotion), which the live Site Manager keeps current, and
        each run this site coordinates reads its
        completions from the rebuilt state.

        The coordinator already re-pushed the WAL's original
        allocations; here every incomplete task of this site's active
        runs is additionally re-issued at its *current* table
        assignment, which covers reschedules the log never saw (their
        immediate pushes were sent from the dead server's role address
        and dropped).  Application Controllers dedup by (execution,
        node), so the overlap is harmless.
        """
        self._wire(site_name, new_sm)
        self.repositories[site_name] = new_sm.repository
        for run in self._live_runs(site_name):
            try:
                state = new_sm.execution_state(run.execution_id)
            except KeyError:
                continue  # finished or never logged: old record stays
            run.completions = state.completed_tasks
        for run, entry in self._unfinished(coordinator=site_name):
            new_sm.push_task(run.graph, run.table, entry, run.execution_id)
        if self.obs.enabled:
            self.obs.trace.record(self.now, "vdce:failover", new_sm.address,
                                  site=site_name)

    # -- elastic federation membership --------------------------------------------
    def enable_membership(self) -> Federation:
        """Start the membership protocol on every site.

        One :class:`~repro.federation.MembershipDaemon` per site server
        heartbeats its peers, quarantines sites it stops hearing from
        (WAN partitions, down servers), and feeds each Site Manager's
        ``site_filter`` so degraded-mode scheduling excludes unreachable
        capacity.  Quarantine triggers the facade's exactly-once
        re-queue of in-flight tasks stranded behind the partition;
        rejoin triggers the WAL/Delta-cursor directory catch-up.
        Idempotent; returns the shared :class:`Federation` view.
        """
        if not self._started:
            raise ConfigurationError(
                "start() the VDCE before enable_membership")
        if self.federation is not None:
            return self.federation
        self.federation = Federation()
        for site_name in sorted(self.site_managers):
            self._make_membership_daemon(site_name)
        for site_name in sorted(self.federation.daemons):
            daemon = self.federation.daemons[site_name]
            for peer in sorted(self.federation.daemons):
                if peer != site_name:
                    daemon.seed_peer(peer)
        return self.federation

    def _make_membership_daemon(self, site_name: str) -> MembershipDaemon:
        """Build, register, and wire one site's membership daemon."""
        assert self.federation is not None
        daemon = MembershipDaemon(
            self.env, self.network, self.world.site(site_name),
            DirectorySync(self.repositories[site_name]),
            obs=self.obs,
            on_quarantine=self._on_site_quarantined,
            on_rejoin=self._on_site_rejoined)
        self.federation.add(daemon)
        self._wire(site_name, self.site_managers[site_name])
        return daemon

    def _on_site_quarantined(self, observer: str, peer: str) -> None:
        """Degraded mode: shed the unreachable site's in-flight work.

        Only runs coordinated by *observer* are touched, so of the many
        sites that may quarantine the same peer exactly one — the
        coordinator — re-queues each task.
        """
        sm = self.site_managers.get(observer)
        if sm is not None:
            sm.waive_site_acks(peer)
        self._requeue_site_tasks(peer, coordinator=observer)
        if self.obs.enabled:
            self.obs.trace.record(self.now, "vdce:site-quarantined",
                                  f"{observer}/server", peer=peer)

    def _on_site_rejoined(self, observer: str, peer: str) -> None:
        """Reconcile after a partition heals.

        Incomplete tasks of *observer*-coordinated runs still assigned
        at *peer* (the forced-fallback leftovers nowhere else could
        take) are re-pushed; Application Controllers dedup by
        ``(execution, node)`` and re-send cached completion reports, so
        work finished behind the partition is recovered rather than
        re-run and nothing executes twice.
        """
        for run, entry in self._unfinished(coordinator=observer, site=peer):
            node = run.graph.node(entry.node_id)
            self.site_managers[observer].push_task(
                run.graph, run.table, entry, run.execution_id,
                forward_inputs={port: None for port in node.input_ports})
        if self.obs.enabled:
            self.obs.trace.record(self.now, "vdce:site-rejoined",
                                  f"{observer}/server", peer=peer)

    def _requeue_site_tasks(self, peer: str,
                            coordinator: str | None = None) -> None:
        """Re-queue incomplete tasks placed at *peer* onto reachable sites.

        With *coordinator* set, only that site's runs are considered —
        the exactly-once guard.  Runs coordinated *by* the unreachable
        site itself are skipped: their server keeps driving them inside
        its own partition, and the idempotency keys absorb the overlap
        at rejoin.
        """
        for run, entry in self._unfinished(coordinator=coordinator,
                                           site=peer):
            if run.report.local_site != peer:
                self._reroute(run, entry, entry.host, exclude_sites=(peer,))
        if self.obs.enabled:
            self.obs.metrics.counter(
                "vdce_degraded_requeues_total",
                help="site-unreachable re-queue sweeps").inc(peer=peer)

    def reachable_capacity(self, observer: str) -> int:
        """Host count across the sites *observer* may currently use.

        The admission-control denominator in degraded mode: load is
        shed against reachable capacity, not nameplate capacity.
        Without membership enabled every site counts.
        """
        total = 0
        for name in sorted(self.world.sites):
            if self.federation is not None and \
                    not self.federation.is_usable(observer, name):
                continue
            total += len(self.world.sites[name].hosts)
        return total

    def site_join(self, name: str, hosts: list[HostSpec],
                  links: dict[str, LinkSpec],
                  sponsor: str | None = None,
                  lan: LinkSpec | None = None,
                  calibration_coverage: float = 1.0):
        """Elastically add a running site to a started federation.

        Provisions the site (hosts, WAN *links* to existing sites, LAN),
        builds and calibrates its repository, launches its full daemon
        stack, announces the join to every member, and bootstraps the
        user-accounts directory with a snapshot transfer from *sponsor*
        (default: the first member, sorted).  Requires
        :meth:`enable_membership`.  Returns the new :class:`Site`.
        """
        if not self._started:
            raise ConfigurationError("start() the VDCE before site_join")
        if self.federation is None:
            raise ConfigurationError(
                "enable_membership() before site_join")
        if not links:
            raise ConfigurationError(
                f"joining site {name!r} needs at least one WAN link")
        members = sorted(self.federation.daemons)
        site = self.world.add_site(name, lan=lan)
        for spec in hosts:
            host = self.world.add_host(name, spec)
            self._byte_orders[host.address] = host.spec.byte_order
        for peer in sorted(links):
            self.world.connect_sites(name, peer, links[peer])
        repo = self._build_site_repository(
            name, site, self.registry.all_tasks(),
            calibration_coverage=calibration_coverage,
            add_default_user=False)  # the directory arrives via snapshot
        self.repositories[name] = repo
        sm = self._bring_up_site(name, site, repo)
        self._start_site_daemons(name, site, sm)
        daemon = self._make_membership_daemon(name)
        for peer in members:
            daemon.seed_peer(peer)
        daemon.announce_join()
        sponsor = sponsor or (members[0] if members else None)
        if sponsor is not None:
            daemon.request_snapshot(sponsor)
        if self.obs.enabled:
            self.obs.trace.record(self.now, "vdce:site-join", f"{name}/server",
                                  hosts=len(hosts), sponsor=sponsor)
            self.obs.metrics.counter(
                "vdce_membership_elastic_total",
                help="elastic site joins/leaves executed").inc(
                    site=name, op="join")
        return site

    def site_leave(self, name: str, drain_timeout_s: float = 300.0):
        """Cleanly drain and detach a site; returns the drain process.

        The departure is announced first, so members stop scheduling
        onto the leaver, then the process polls every
        :data:`LEAVE_POLL_PERIOD_S` until no active run involves the
        site (as coordinator or executor).  On drain timeout its
        remaining tasks are force-re-queued elsewhere.
        Finally every process of the site is stopped, as :meth:`stop`
        stops it, and the site is removed from the facade, the failover
        coordinator, the world and the topology.  Drive the returned
        process with :meth:`run` (or wait on it from another process).
        """
        if self.federation is None:
            raise ConfigurationError(
                "enable_membership() before site_leave")
        daemon = self.federation.daemon(name)

        def proc():
            daemon.announce_leave()
            deadline = self.now + drain_timeout_s
            while self._site_involved(name) and self.now < deadline:
                yield self.env.timeout(LEAVE_POLL_PERIOD_S)
            if self._site_involved(name):
                # drain timed out: force the stragglers off the leaver
                for other in sorted(self.site_managers):
                    if other != name:
                        self.site_managers[other].waive_site_acks(name)
                self._requeue_site_tasks(name)
                yield self.env.timeout(LEAVE_POLL_PERIOD_S)
            self._stop_site(name)
            self.federation.remove(name)
            prefix = f"{name}/"
            for mapping in (self.monitors, self.data_managers,
                            self.app_controllers):
                for addr in [a for a in mapping if a.startswith(prefix)]:
                    del mapping[addr]
            for key in [k for k in self.group_managers if k[0] == name]:
                del self.group_managers[key]
            self.load_models[:] = [m for m in self.load_models
                                   if m.host.site != name]
            if self.recovery is not None:
                self.recovery.sites.pop(name, None)
            del self.site_managers[name]
            del self.selectors[name]
            del self.repositories[name]
            self.world.remove_site(name)
            if self.obs.enabled:
                self.obs.trace.record(self.now, "vdce:site-leave",
                                      f"{name}/server")
                self.obs.metrics.counter(
                    "vdce_membership_elastic_total",
                    help="elastic site joins/leaves executed").inc(
                        site=name, op="leave")

        return self.env.process(proc(), name=f"site-leave:{name}")

    def _site_involved(self, name: str) -> bool:
        """Does any active run still coordinate at or execute on *name*?"""
        return next(self._live_runs(name), None) is not None or \
            next(self._unfinished(site=name), None) is not None

    def _live_runs(self, coordinator: str | None = None):
        """Scheduled, still-running runs in execution-id order; with
        *coordinator*, only the runs that site coordinates."""
        for execution_id in sorted(self._active_runs):
            run = self._active_runs[execution_id]
            if run.status == "running" and run.table is not None and (
                    coordinator is None
                    or run.report.local_site == coordinator):
                yield run

    def _unfinished(self, coordinator: str | None = None,
                    site: str | None = None):
        """Yield ``(run, entry)`` for every unfinished task of a live run.

        The one sweep every re-dispatch walks: the :meth:`_live_runs`,
        each run's tasks in node-id order, minus ``run.completions``;
        *site* keeps only tasks currently placed there.  Entries are
        read as they are reached, so the sweep sees its own reschedules.
        """
        for run in self._live_runs(coordinator):
            for node_id in sorted(run.table.entries):
                if node_id in run.completions:
                    continue
                entry = run.table.get(node_id)
                if site is None or entry.site == site:
                    yield run, entry

    def _stop_site(self, name: str) -> None:
        """Stop every process of site *name* (:meth:`stop` and
        :meth:`site_leave` share it): its Monitors, Data Managers,
        Application Controllers, Group Managers and Site Manager, its
        membership daemon, its hosts' load models, and, when failover
        protects it, its server heartbeat and standbys."""
        prefix = f"{name}/"
        for mapping in (self.monitors, self.data_managers,
                        self.app_controllers):
            for addr in sorted(a for a in mapping if a.startswith(prefix)):
                mapping[addr].stop()
        for key in sorted(k for k in self.group_managers if k[0] == name):
            self.group_managers[key].stop()
        sm = self.site_managers.get(name)
        if sm is not None:
            sm.stop()
        if self.federation is not None and name in self.federation.daemons:
            self.federation.daemons[name].stop()
        if self.recovery is not None and name in self.recovery.sites:
            protected = self.recovery.sites[name]
            protected.heartbeat.stop()
            for replica in protected.replicas:
                replica.stop()
        for model in self.load_models:
            if model.host.site == name:
                model.stop()

    # -- fault injection ---------------------------------------------------------
    def apply_fault_plan(self, plan: FaultPlan) -> FaultInjector:
        """Install a :class:`~repro.faults.FaultPlan` on this federation.

        May be called before or during a run; host/site fault times must
        lie in the simulated future.  Repeated calls reuse one injector
        (and its RNG stream), so a session's fault log stays a single
        deterministic sequence.
        """
        if self.fault_injector is None:
            self.fault_injector = FaultInjector(
                self.env, self.network, rng=self.world.rng.stream("faults"),
                host_resolver=self.world.host,
                site_resolver=self.world.site,
                site_hosts=lambda s: list(self.world.site(s).hosts.values()))
        self.fault_injector.install(plan)
        return self.fault_injector

    # -- simulation control ------------------------------------------------------
    def run(self, until: float | None = None):
        """Advance the simulated clock (delegates to the engine)."""
        return self.env.run(until=until)

    def warm_up(self, duration_s: float = 30.0) -> None:
        """Run monitors/loads for a while so repositories hold real data."""
        self.env.run(until=self.now + duration_s)

    def stop(self) -> None:
        """Terminate every daemon and load model.

        After stop() the event queue drains naturally; useful when a
        VDCE instance is embedded in a longer-lived simulation and must
        release its periodic processes.
        """
        for name in sorted(self.world.sites):
            self._stop_site(name)
