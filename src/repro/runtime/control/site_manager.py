"""The Site Manager: the VDCE server software of one site.

Paper section 2 / Figure 6: the Site Manager "handles the inter-site
communications and bridges the VDCE modules to the web-based repository".
Concretely it:

* updates the site repository with workload measurements and failure /
  recovery notifications from Group Managers ("Updating the Site
  Repository");
* serves the local Application Scheduler's repository reads;
* as a *remote* site: receives AFG multicasts, runs the Host Selection
  Algorithm, and returns the mapping ("Inter-site Coordination");
* as the *local* site: multicasts the AFG to the k nearest sites,
  gathers replies, and runs the Site Scheduler walk;
* multicasts the finished resource allocation table to the Group
  Managers involved ("Sending the Related Portion of the Resource
  Allocation Table");
* collects channel-setup acknowledgments and emits the execution
  startup signal (Figure 7 step 5);
* records completed task execution times into the task-performance
  database ("the newly measured execution time of each application task
  is stored in the task-performance database").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.afg.graph import ApplicationFlowGraph
from repro.analysis import hooks
from repro.net import (
    AFG_MULTICAST,
    ALLOCATION_PUSH,
    CHANNEL_ACK,
    EXECUTION_REQUEST,
    HOST_DOWN,
    HOST_SELECTION_REPLY,
    RESCHEDULE_REQUEST,
    START_SIGNAL,
    WORKLOAD_UPDATE,
)
from repro.net.network import Network
from repro.net.topology import Topology
from repro.obs import OBS_OFF, Observability
from repro.repository.site_repository import SiteRepository
from repro.resources.site import Site
from repro.runtime.control.group_manager import HOST_UP, GroupManager
from repro.scheduling.allocation import (
    AllocationEntry,
    ResourceAllocationTable,
)
from repro.scheduling.host_selection import HostSelectionResult, HostSelector
from repro.scheduling.site_scheduler import SiteScheduler
from repro.simcore.engine import Environment, Event
from repro.util.errors import SchedulingError

TASK_COMPLETED = "task-completed"
APP_COMPLETED = "application-completed"

#: how long the local site waits for remote host-selection replies
SELECTION_TIMEOUT_S = 5.0


@dataclass
class PendingSchedule:
    """State of one in-flight inter-site scheduling round."""

    request_id: str
    graph: ApplicationFlowGraph
    expected_sites: set[str]
    results: dict[str, HostSelectionResult] = field(default_factory=dict)
    done: Event | None = None


@dataclass
class ExecutionState:
    """Per-execution bookkeeping at the local Site Manager.

    :meth:`from_begin` and :meth:`apply` define what each execution
    record of the WAL does, for the live Site Manager and for the fold
    a promotion runs (:meth:`fold`)."""

    execution_id: str
    application: str
    expected_acks: set[str]
    received_acks: set[str] = field(default_factory=set)
    controllers: set[str] = field(default_factory=set)
    started: bool = False
    start_signal_time: float | None = None
    completed_tasks: dict[str, dict] = field(default_factory=dict)
    finished: Event | None = None
    total_tasks: int = 0
    #: ``exec-finished`` was applied: every task completed
    closed: bool = field(default=False, init=False)

    @classmethod
    def from_begin(cls, payload: dict[str, Any],
                   finished: Event | None = None) -> "ExecutionState":
        """The execution an ``exec-begin`` record opens."""
        return cls(execution_id=payload["execution_id"],
                   application=payload["application"],
                   expected_acks=set(payload["expected_acks"]),
                   controllers=set(payload["controllers"]),
                   finished=finished, total_tasks=payload["total_tasks"])

    def apply(self, kind: str, payload: dict[str, Any], t: float) -> None:
        """Give one ``ack``, ``start``, ``task-completed`` or
        ``exec-finished`` record, logged at *t*, its effect; other kinds
        change nothing.  ``exec-finished`` also hands the completions to
        the client's ``finished`` future, when one waits."""
        if kind == "ack":
            self.received_acks.add(payload["host"])
        elif kind == "start":
            self.started = True
            self.start_signal_time = t
        elif kind == "task-completed":
            self.completed_tasks[payload["node_id"]] = payload
        elif kind == "exec-finished":
            self.closed = True
            if self.finished is not None and not self.finished.triggered:
                self.finished.succeed(dict(self.completed_tasks))

    @classmethod
    def fold(cls, records: Iterable[Any]) -> dict[str, "ExecutionState"]:
        """The executions :class:`~repro.recovery.wal.WalRecord` rows
        build, applied in LSN order.  A record of an execution no
        ``exec-begin`` opened (a replication gap) and a repository-kind
        record change nothing."""
        executions: dict[str, ExecutionState] = {}
        for record in sorted(records, key=lambda r: r.lsn):
            execution_id = record.payload.get("execution_id")
            if record.kind == "exec-begin":
                executions[execution_id] = cls.from_begin(record.payload)
            elif execution_id in executions:
                executions[execution_id].apply(record.kind, record.payload,
                                               record.t)
        return executions

    def waive(self, hosts: Iterable[str]) -> None:
        """Stop waiting on *hosts*: drop their channel acks, expected or
        received, and their controllers from the start signal."""
        for host in hosts:
            self.expected_acks.discard(host)
            self.received_acks.discard(host)
            self.controllers.discard(f"{host}/appctl")


class SiteManager:
    """One per VDCE server machine."""

    SERVICE = "sitemgr"

    def __init__(self, env: Environment, network: Network, site: Site,
                 repository: SiteRepository, topology: Topology,
                 obs: Observability | None = None) -> None:
        self.env = env
        self.network = network
        self.site = site
        self.repository = repository
        self.topology = topology
        self.obs = obs if obs is not None else OBS_OFF
        self.address = f"{site.name}/server/{self.SERVICE}"
        self.mailbox = network.register(self.address)
        self.selector = HostSelector(repository)
        self.group_managers: dict[str, GroupManager] = {}
        self._pending: dict[str, PendingSchedule] = {}
        self._executions: dict[str, ExecutionState] = {}
        self._request_seq = 0
        #: hook invoked with the reschedule-request payload (installed by
        #: the VDCE facade, which owns cross-module rescheduling)
        self.on_reschedule_request: Callable[[dict], None] | None = None
        #: hook invoked with the host address after a host-down
        #: notification is applied (installed by the facade, which
        #: reroutes the lost tasks of active executions)
        self.on_host_down: Callable[[str], None] | None = None
        #: degraded-mode site predicate (installed by the facade when
        #: federation membership is enabled): quarantined sites are
        #: excluded from every scheduling round this manager runs
        self.site_filter: Callable[[str], bool] | None = None
        #: write-ahead-log shipper (a ReplicationShipper, attached by the
        #: RecoveryCoordinator when failover is enabled for this site);
        #: every mutating operation logs through :meth:`_log` first
        self.replication: Any = None
        self.updates_applied = 0
        self._handlers: dict[str, Callable[[Any], None]] = {
            WORKLOAD_UPDATE: self._on_workload_update,
            HOST_DOWN: self._on_host_down,
            HOST_UP: self._on_host_up,
            AFG_MULTICAST: self._on_afg_multicast,
            HOST_SELECTION_REPLY: self._on_selection_reply,
            CHANNEL_ACK: self._on_channel_ack,
            RESCHEDULE_REQUEST: self._on_reschedule_request,
            TASK_COMPLETED: self._on_task_completed,
            ALLOCATION_PUSH: self._on_allocation_push,
        }
        self._inbox_proc = env.process(self._inbox_loop(),
                                       name=f"sm:{self.address}")

    # -- group manager wiring -------------------------------------------------
    def register_group_manager(self, gm: GroupManager) -> None:
        """Attach a Group Manager so allocations can reach its group."""
        self.group_managers[gm.group] = gm

    # -- inbox ------------------------------------------------------------
    def _inbox_loop(self):
        handlers = self._handlers
        while True:
            msg = yield self.mailbox.get()
            handler = handlers.get(msg.kind)
            if handler is not None:
                handler(msg)

    # -- write-ahead logging ------------------------------------------------
    def _log(self, kind: str, payload: dict) -> None:
        """Append one mutation to the replication WAL (no-op standalone)."""
        if self.replication is not None:
            # The shipper reports the WAL-cell write to the sanitizer.
            self.replication.log(kind, payload)

    def _hb_exec(self, detail: str) -> None:
        """Report a mutation of the execution-state table (``sm-exec``)
        to the attached sanitizer; call sites guard on ``hooks.HB``."""
        hooks.HB.write(self.site.name, "sm-exec", detail)

    # -- repository updates -----------------------------------------------
    def _on_workload_update(self, msg) -> None:
        # one forwarded monitor sample, relayed by a Group Manager
        sample = msg.payload
        self._log("workload-update", dict(sample))
        if not self.repository.apply("workload-update", sample,
                                     self.env.now):
            return
        self.updates_applied += 1
        if self.obs.enabled:
            self.obs.trace.record(
                self.env.now, "sm:db-update", self.address,
                host=sample["host"], load=sample["cpu_load"])
            self.obs.metrics.counter(
                "sm_db_updates_total",
                help="repository workload updates applied").inc(
                    site=self.site.name)

    def _on_host_down(self, msg) -> None:
        host = msg.payload["host"]
        change = {"host": host, "time": self.env.now}
        self._log("host-down", change)
        self.repository.apply("host-down", change, self.env.now)
        if self.obs.enabled:
            self.obs.trace.record(self.env.now, "sm:host-down", self.address,
                                  host=host)
            self.obs.metrics.counter(
                "sm_host_events_total",
                help="host down/up notifications handled").inc(
                    site=self.site.name, kind="down")
        # A host that died before acking its channels would block the
        # start signal forever; waive its ack for executions that have
        # not started (its tasks get rerouted by the host-down hook).
        for state in self._executions.values():
            if state.started or host not in state.expected_acks:
                continue
            if hooks.HB is not None:
                self._hb_exec(f"ack-waive:{state.execution_id}")
            state.waive((host,))
            if self.obs.enabled:
                self.obs.trace.record(
                    self.env.now, "sm:ack-waived", self.address,
                    execution=state.execution_id, host=host)
            self._maybe_start(state)
        if self.on_host_down is not None:
            self.on_host_down(host)

    def waive_site_acks(self, site_name: str) -> None:
        """Waive pending channel acks from every host at an unreachable site.

        The partition analogue of the host-down ack waiver: hosts at a
        quarantined (or departing) site cannot deliver their acks, and a
        not-yet-started execution must not wait on them forever — their
        tasks are re-queued onto reachable sites by the facade.
        """
        prefix = f"{site_name}/"
        for state in self._executions.values():
            if state.started:
                continue
            stale = sorted(h for h in state.expected_acks
                           if h.startswith(prefix))
            if not stale:
                continue
            if hooks.HB is not None:
                self._hb_exec(f"ack-waive:{state.execution_id}")
            state.waive(stale)
            if self.obs.enabled:
                self.obs.trace.record(
                    self.env.now, "sm:site-acks-waived", self.address,
                    execution=state.execution_id, site=site_name,
                    hosts=len(stale))
            self._maybe_start(state)

    def _on_host_up(self, msg) -> None:
        host = msg.payload["host"]
        change = {"host": host, "time": self.env.now}
        self._log("host-up", change)
        self.repository.apply("host-up", change, self.env.now)
        if self.obs.enabled:
            self.obs.trace.record(self.env.now, "sm:host-up", self.address,
                                  host=host)
            self.obs.metrics.counter(
                "sm_host_events_total",
                help="host down/up notifications handled").inc(
                    site=self.site.name, kind="up")

    # -- remote-site role: answer AFG multicasts -----------------------------
    def _on_afg_multicast(self, msg) -> None:
        payload = msg.payload
        graph: ApplicationFlowGraph = payload["graph"]
        result = self.selector.select(graph)
        self.network.send(self.address, msg.src, HOST_SELECTION_REPLY,
                          payload={"request_id": payload["request_id"],
                                   "result": result},
                          size_bytes=128 + 64 * len(result.choices))
        if self.obs.enabled:
            self.obs.trace.record(
                self.env.now, "sm:selection-served", self.address,
                application=graph.name, requester=msg.src)

    def _on_selection_reply(self, msg) -> None:
        payload = msg.payload
        pending = self._pending.get(payload["request_id"])
        if pending is None:
            return  # late reply after timeout: ignored
        result: HostSelectionResult = payload["result"]
        pending.results[result.site] = result
        if set(pending.results) >= pending.expected_sites and \
                pending.done is not None and not pending.done.triggered:
            pending.done.succeed(pending.results)

    # -- local-site role: the full Figure 4 round over messages --------------
    def schedule_application(self, graph: ApplicationFlowGraph,
                             k_remote_sites: int = 2,
                             queue_aware: bool = False):
        """Process: multicast AFG, gather selections, run the site walk.

        Yields simulation events; returns ``(table, report)``.  Remote
        sites that do not answer within :data:`SELECTION_TIMEOUT_S` are
        dropped from consideration (wide-area robustness).
        """
        self._request_seq += 1
        request_id = f"{self.site.name}-req-{self._request_seq}"
        scheduler = SiteScheduler(self.site.name, self.topology,
                                  k_remote_sites=k_remote_sites,
                                  queue_aware=queue_aware, obs=self.obs,
                                  site_filter=self.site_filter)
        remote_sites = scheduler.select_remote_sites()
        pending = PendingSchedule(request_id=request_id, graph=graph,
                                  expected_sites=set(remote_sites),
                                  done=self.env.event())
        self._pending[request_id] = pending
        # Local selection runs in-process (Figure 4 step 4 "for local site").
        pending.results[self.site.name] = self.selector.select(graph)
        if remote_sites:
            # step 3's multicast proper: one batched fan-out, one heap
            # entry per distinct delay instead of one process per site
            self.network.send_batch(
                self.address,
                [f"{remote}/server/{self.SERVICE}"
                 for remote in remote_sites],
                AFG_MULTICAST,
                payload={"request_id": request_id, "graph": graph},
                size_bytes=256 + 128 * len(graph))
            timeout = self.env.timeout(SELECTION_TIMEOUT_S)
            yield self.env.any_of([pending.done, timeout])
        del self._pending[request_id]
        table, report = scheduler.schedule(graph, dict(pending.results))
        if self.obs.enabled:
            self.obs.trace.record(self.env.now, "sm:scheduled", self.address,
                                  application=graph.name,
                                  sites=sorted(pending.results))
        return table, report

    # -- allocation distribution (Figure 6 interaction 4) ---------------------
    def distribute_allocation(self, table: ResourceAllocationTable,
                              execution_id: str,
                              graph: ApplicationFlowGraph,
                              max_host_load: float | None = None
                              ) -> ExecutionState:
        """Multicast RAT portions to the Group Managers involved.

        Returns the execution-tracking state used for ack collection.
        Only the local site's hosts are served by this site's group
        managers; remote portions are forwarded to the remote Site
        Managers, which distribute to their own groups.  Entries are
        enriched with the communication information (peer hosts, port
        wiring, transfer sizes) the Data Managers need for channel setup.
        """
        hosts = sorted(table.hosts())
        by_site: dict[str, dict[str, list]] = {}
        for host in hosts:
            site = host.split("/")[0]
            portion = []
            for e in table.portion_for_host(host):
                payload = self._entry_payload(e, graph, table)
                if max_host_load is not None:
                    # the application's QoS overload ceiling travels with
                    # the allocation (paper: the Application Controller
                    # maintains "the performance ... and QoS requirements")
                    payload["max_host_load"] = max_host_load
                portion.append(payload)
            by_site.setdefault(site, {})[host] = portion
        begin = {
            "execution_id": execution_id, "application": table.application,
            "expected_acks": hosts,
            "controllers": sorted(f"{h}/appctl" for h in hosts),
            "total_tasks": len(table),
            "coordinator": self.address, "by_site": by_site}
        if hooks.HB is not None:
            self._hb_exec(f"begin:{execution_id}")
        state = ExecutionState.from_begin(begin, finished=self.env.event())
        self._executions[execution_id] = state
        # WAL first (write-ahead): a standby must learn the execution
        # exists before any push effect can race ahead of the log
        self._log("exec-begin", begin)
        self.push_portions(by_site, table.application, execution_id)
        return state

    def push_portions(self, by_site: dict[str, dict[str, list]],
                      application: str, execution_id: str) -> None:
        """Push *by_site* (site -> host -> entry payloads) as coordinator:
        local portions to this site's Group Managers, remote ones in one
        batched ``ALLOCATION_PUSH`` to their Site Managers."""
        remote_dsts: list[str] = []
        remote_payloads: list[Any] = []
        remote_sizes: list[float] = []
        for site, portions in by_site.items():
            if site == self.site.name:
                self._push_to_groups(portions, application, execution_id)
            else:
                remote_dsts.append(f"{site}/server/{self.SERVICE}")
                remote_payloads.append(
                    {"application": application,
                     "execution_id": execution_id,
                     "portions": portions,
                     "coordinator": self.address})
                remote_sizes.append(
                    256 + 128 * sum(map(len, portions.values())))
        if remote_dsts:
            self.network.send_batch(
                self.address, remote_dsts, ALLOCATION_PUSH,
                payloads=remote_payloads, sizes=remote_sizes)

    def push_task(self, graph: ApplicationFlowGraph,
                  table: ResourceAllocationTable, entry: AllocationEntry,
                  execution_id: str, **fields: Any) -> None:
        """Send one entry as an ``immediate`` execution request, with this
        manager coordinating; *fields* (``forward_inputs``, ``attempt``,
        ...) extend the entry payload.  Every re-dispatch goes here."""
        payload = self._entry_payload(entry, graph, table)
        payload.update(fields)
        self.network.send(
            self.address, f"{entry.host}/appctl", EXECUTION_REQUEST,
            payload={"application": graph.name,
                     "execution_id": execution_id,
                     "entries": [payload], "coordinator": self.address,
                     "immediate": True},
            size_bytes=256)

    def _on_allocation_push(self, msg) -> None:
        """Remote-site role: distribute a forwarded portion to my groups."""
        payload = msg.payload
        self._push_to_groups(payload["portions"], payload["application"],
                             payload["execution_id"],
                             coordinator=payload.get("coordinator",
                                                     msg.src))

    def _push_to_groups(self, portions: dict[str, list], application: str,
                        execution_id: str,
                        coordinator: str | None = None) -> None:
        by_group: dict[str, dict[str, list]] = {}
        for host, entries in portions.items():
            host_name = host.split("/")[1]
            group = self.site.group_of(host_name)
            by_group.setdefault(group, {})[host] = entries
        dsts: list[str] = []
        payloads: list[Any] = []
        for group, group_portions in by_group.items():
            gm = self.group_managers.get(group)
            if gm is None:
                raise SchedulingError(
                    f"no group manager for group {group!r} at "
                    f"{self.site.name!r}")
            dsts.append(gm.address)
            payloads.append({"application": application,
                             "execution_id": execution_id,
                             "portions": group_portions,
                             "coordinator": coordinator or self.address})
        if dsts:
            self.network.send_batch(self.address, dsts, ALLOCATION_PUSH,
                                    payloads=payloads, size_bytes=256)

    @staticmethod
    def _entry_payload(entry, graph: ApplicationFlowGraph,
                       table: ResourceAllocationTable) -> dict[str, Any]:
        """One RAT entry plus the communication info the runtime needs.

        Every link names a node of *graph* (``add_link`` checks both
        ends), so producers are read from ``graph.nodes`` directly."""
        node_id = entry.node_id
        node = graph.node(node_id)
        nodes = graph.nodes
        in_links = [
            {"src_node": link.src, "src_port": link.src_port,
             "dst_port": link.dst_port,
             "src_host": table.get(link.src).host,
             "size_bytes": nodes[link.src].output_bytes()}
            for link in graph.in_links(node_id)
        ]
        size_bytes = node.output_bytes()
        out_links = [
            {"dst_node": link.dst, "dst_port": link.dst_port,
             "src_port": link.src_port,
             "dst_host": table.get(link.dst).host,
             "size_bytes": size_bytes}
            for link in graph.out_links(node_id)
        ]
        props = node.properties
        return {
            "node_id": node_id, "task_name": entry.task_name,
            "site": entry.site, "hosts": list(entry.hosts),
            "predicted_time_s": entry.predicted_time_s,
            "processors": entry.processors,
            "input_size": props.input_size,
            "params": dict(props.params),
            "is_exit": not out_links,
            "in_links": in_links,
            "out_links": out_links,
        }

    # -- ack collection + start signal (Figure 7) ------------------------------
    def _on_channel_ack(self, msg) -> None:
        payload = msg.payload
        state = self._executions.get(payload["execution_id"])
        if state is None or state.started:
            return
        ack = {"execution_id": payload["execution_id"],
               "host": payload["host"]}
        if ack["host"] not in state.received_acks:
            self._log("ack", ack)
        if hooks.HB is not None:
            self._hb_exec(f"ack:{payload['execution_id']}")
        state.apply("ack", ack, self.env.now)
        self._maybe_start(state)

    def _maybe_start(self, state: ExecutionState) -> None:
        """Emit the start signal once every expected ack is in (or waived)."""
        if state.started or not (state.received_acks >= state.expected_acks):
            return
        if hooks.HB is not None:
            self._hb_exec(f"start:{state.execution_id}")
        start = {"execution_id": state.execution_id}
        self._log("start", start)
        state.apply("start", start, self.env.now)
        self._send_start(state)
        if self.obs.enabled:
            self.obs.trace.record(self.env.now, "sm:start-signal",
                                  self.address, execution=state.execution_id)
            self.obs.metrics.counter(
                "sm_start_signals_total",
                help="execution start signals emitted").inc(
                    site=self.site.name)

    # -- completion recording ---------------------------------------------------
    def _on_task_completed(self, msg) -> None:
        payload = msg.payload
        state = self._executions.get(payload["execution_id"])
        if state is None:
            return
        if payload["node_id"] in state.completed_tasks:
            # duplicate report (controller re-sent it after a failover
            # re-push): already recorded, must not double-count
            return
        self._log("task-completed", payload)
        if hooks.HB is not None:
            self._hb_exec(f"completed:{payload['execution_id']}")
        state.apply("task-completed", payload, self.env.now)
        if self.obs.enabled:
            self.obs.metrics.counter(
                "sm_tasks_completed_total",
                help="task-completion reports recorded").inc(
                    site=self.site.name)
        # Paper: newly measured execution times go into the task-
        # performance database after the application completes.
        self.repository.apply("task-completed", payload, self.env.now)
        if len(state.completed_tasks) >= state.total_tasks and \
                state.finished is not None and not state.finished.triggered:
            finish = {"execution_id": state.execution_id}
            self._log("exec-finished", finish)
            state.apply("exec-finished", finish, self.env.now)
            if self.obs.enabled:
                self.obs.trace.record(
                    self.env.now, "sm:app-completed", self.address,
                    execution=state.execution_id)

    def resend_start(self, state: ExecutionState) -> None:
        """Re-emit the start signal for an already-started execution.

        Used after a failover re-push: controllers whose setup completed
        before the crash already consumed the original signal (their
        start event stays triggered), while re-pushed controllers need
        one to run tasks the log shows as not yet completed.
        """
        self._send_start(state)
        if self.obs.enabled:
            self.obs.trace.record(self.env.now, "sm:start-resent",
                                  self.address, execution=state.execution_id)

    def _send_start(self, state: ExecutionState) -> None:
        """Send *state*'s start signal to each of its controllers."""
        self.network.send_batch(
            self.address, sorted(state.controllers), START_SIGNAL,
            payload={"execution_id": state.execution_id}, size_bytes=32)

    def execution_state(self, execution_id: str) -> ExecutionState:
        """Bookkeeping for one distributed execution (acks, completions)."""
        return self._executions[execution_id]

    # -- rescheduling relay -------------------------------------------------------
    def _on_reschedule_request(self, msg) -> None:
        if self.obs.enabled:
            self.obs.trace.record(
                self.env.now, "sm:reschedule-request", self.address,
                host=msg.payload.get("host"),
                reason=msg.payload.get("reason"))
        if self.on_reschedule_request is not None:
            self.on_reschedule_request(msg.payload)

    def stop(self) -> None:
        """Terminate the manager's inbox process (teardown)."""
        if self._inbox_proc.is_alive:
            self._inbox_proc.interrupt("stop")
