"""The Application Controller: one per VDCE machine.

Paper section 2.3.1: "The execution environment setup and management
services are provided by the Application Controller by interacting with
the Data Manager."  On receiving an execution request from its Group
Manager it activates the Data Manager (channel endpoints + setup
handshakes), forwards the acknowledgment toward the Site Manager, waits
for the execution startup signal, runs its assigned tasks, and reports
completions.

It also *manages* the execution: "If the current load on any of these
machines is more than a predefined threshold value, the Application
Controller terminates the task execution on the machine and sends a task
rescheduling request to the Group Manager."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.net import (
    CHANNEL_ACK,
    EXECUTION_REQUEST,
    RESCHEDULE_REQUEST,
    START_SIGNAL,
)
from repro.net.network import Network
from repro.obs import OBS_OFF, Observability
from repro.resources.groundtruth import ExecutionModel
from repro.resources.host import Host
from repro.runtime.control.site_manager import TASK_COMPLETED
from repro.runtime.data.data_manager import (
    ChannelSpec,
    DataManager,
    channel_key,
)
from repro.scheduling.rescheduling import ReschedulePolicy
from repro.simcore.engine import Environment, Event, Interrupt
from repro.tasklib.registry import LibraryRegistry
from repro.util.errors import ExecutionError

PARALLEL_OCCUPY = "parallel-occupy"

#: how often a running task's host load is checked for overload
MONITOR_INTERVAL_S = 1.0


@dataclass
class ControllerStats:
    tasks_executed: int = 0
    tasks_rescheduled_away: int = 0


class ApplicationController:
    """Per-host execution-environment setup and task management."""

    SERVICE = "appctl"

    def __init__(self, env: Environment, network: Network, host: Host,
                 registry: LibraryRegistry, model: ExecutionModel,
                 data_manager: DataManager,
                 group_manager_addr: str,
                 policy: ReschedulePolicy | None = None,
                 obs: Observability | None = None) -> None:
        self.env = env
        self.network = network
        self.host = host
        self.registry = registry
        self.model = model
        self.data_manager = data_manager
        self.group_manager_addr = group_manager_addr
        self.policy = policy or ReschedulePolicy()
        self.obs = obs if obs is not None else OBS_OFF
        self.address = f"{host.address}/{self.SERVICE}"
        self.mailbox = network.register(self.address)
        self.stats = ControllerStats()
        self._start_events: dict[str, Any] = {}
        # exactly-once bookkeeping: after a server failover the promoted
        # Site Manager re-pushes allocations it cannot prove were acted
        # on; these dedup keys make every re-push idempotent.
        #: (execution_id, node_id) -> "running" | "done" | "aborted"
        self._node_status: dict[tuple[str, str], str] = {}
        #: executions whose channel setup completed and was acked
        self._acked: set[str] = set()
        #: cached completion reports, re-sent on duplicate pushes so a
        #: promoted server can fill log gaps without re-running tasks
        self._completed_reports: dict[str, dict[str, dict]] = {}
        #: inputs consumed by aborted runs, keyed (execution, node) —
        #: a re-issued task must not re-await channels it already drained
        self._aborted_inputs: dict[tuple[str, str], dict] = {}
        self._inbox_proc = env.process(self._inbox_loop(),
                                       name=f"ac:{self.address}")

    # -- inbox ----------------------------------------------------------
    def _inbox_loop(self):
        while True:
            msg = yield self.mailbox.get()
            if msg.kind == EXECUTION_REQUEST:
                if msg.payload.get("immediate"):
                    self._run_pushed_tasks(msg.payload)
                else:
                    self.env.process(self._handle_execution(msg.payload),
                                     name=f"ac-exec:{self.address}")
            elif msg.kind == START_SIGNAL:
                ev = self._start_events.get(msg.payload["execution_id"])
                if ev is not None and not ev.triggered:
                    ev.succeed()
            elif msg.kind == PARALLEL_OCCUPY:
                # hold this machine busy as a parallel-task participant
                self.host.task_started(load=1.0)
                self.env.call_later(msg.payload["duration"],
                                    self.host.task_finished, 1.0)

    def _run_pushed_tasks(self, payload: dict) -> None:
        """Start an ``immediate`` request's tasks (a rescheduled task).

        Inputs travel with the request and the execution is already
        under way: no setup, no start signal.  Runs inside the inbox
        loop, so nothing here may raise.

        An entry whose inputs travel with it takes the pre-start checks
        here, and only a task that starts gets a process.  The inbox
        resumes on a NORMAL queue entry, so no URGENT entry is pending
        at ``now``: a task run spawned here would start next, and its
        checks would see this state and send the same request at the
        same place in the queue.
        """
        execution_id = payload["execution_id"]
        coordinator = payload["coordinator"]
        for entry in payload["entries"]:
            if entry["hosts"][0] != self.host.address:
                continue
            if not self._can_source_inputs(execution_id, entry):
                # Promotion-time re-push of a task this host never set
                # up: no forwarded inputs, no cached aborted inputs, no
                # open endpoints — the inputs can never arrive here, so
                # running would die on a closed channel.  Leave it
                # unclaimed; the rescheduling pipeline re-issues it with
                # the inputs attached.
                if self.obs.enabled:
                    self.obs.trace.record(
                        self.env.now, "ac:unsourceable-repush",
                        self.host.address, node=entry["node_id"],
                        execution=execution_id)
                continue
            if not self._claim(execution_id, entry["node_id"], coordinator):
                continue
            if "forward_inputs" in entry and self._bounced(
                    execution_id, entry, dict(entry["forward_inputs"])):
                continue
            self.env.process(
                self._run_task(execution_id, coordinator, entry),
                name=f"retask:{entry['node_id']}@{self.host.address}")

    # -- execution environment setup (Figure 7 steps 1-4) ----------------------
    def _handle_execution(self, payload: dict):
        execution_id = payload["execution_id"]
        coordinator = payload["coordinator"]
        my_entries = [e for e in payload["entries"]
                      if e["hosts"][0] == self.host.address]
        if execution_id not in self._acked:
            # 1-2. activate the Data Manager: open receive endpoints for
            # my tasks' inputs, then handshake outgoing channels.
            out_specs: list[ChannelSpec] = []
            for entry in my_entries:
                for link in entry["in_links"]:
                    spec = self._in_spec(execution_id, entry, link)
                    self.data_manager.open_endpoint(spec)
                for link in entry["out_links"]:
                    out_specs.append(
                        self._out_spec(execution_id, entry, link))
            yield from self.data_manager.setup_channels(out_specs)
            yield self._queue_turn()
            self._acked.add(execution_id)
        # (else: duplicate push from a promoted server — channels are
        # already set up, but the new coordinator still needs the ack)
        # 3-4. forward the acknowledgment toward the Site Manager.
        self.network.send(self.address, coordinator, CHANNEL_ACK,
                          payload={"execution_id": execution_id,
                                   "host": self.host.address},
                          size_bytes=48)
        start = self._start_events.setdefault(execution_id,
                                              self.env.event())
        yield start
        # 5. run my tasks (each as its own process so independent tasks
        # interleave exactly as separate processes would on the machine).
        # A duplicate push re-runs only tasks that never ran here.
        # Participant entries occupy this host when the primary signals
        # (PARALLEL_OCCUPY messages).
        for entry in my_entries:
            if self._claim(execution_id, entry["node_id"], coordinator,
                           allow_aborted=False):
                self.env.process(
                    self._run_task(execution_id, coordinator, entry),
                    name=f"task:{entry['node_id']}@{self.host.address}")

    def _can_source_inputs(self, execution_id: str, entry: dict) -> bool:
        """May :meth:`_run_task` actually gather this entry's inputs here?

        True when the inputs travel with the entry, a prior aborted run
        on this host already drained them, or every input channel's
        receive endpoint is open locally (the original-allocation case).
        """
        if "forward_inputs" in entry:
            return True
        if (execution_id, entry["node_id"]) in self._aborted_inputs:
            return True
        return all(
            self.data_manager.has_endpoint(channel_key(
                execution_id, entry["node_id"], link["dst_port"]))
            for link in entry["in_links"])

    def _claim(self, execution_id: str, node_id: str, coordinator: str,
               allow_aborted: bool = True) -> bool:
        """Dedup gate: may this (execution, node) start here now?

        Running and completed tasks refuse the claim (for completed
        ones the cached report is re-sent, healing a coordinator whose
        replicated log missed the original completion).  Aborted tasks
        may be reclaimed only by an *immediate* push — the rescheduling
        pipeline deliberately re-issuing them — never by a duplicate
        allocation push, which would race the rescheduled copy.
        """
        key = (execution_id, node_id)
        status = self._node_status.get(key)
        if status == "running":
            return False
        if status == "done":
            self._resend_report(execution_id, node_id, coordinator)
            return False
        if status == "aborted" and not allow_aborted:
            return False
        self._node_status[key] = "running"
        return True

    def _resend_report(self, execution_id: str, node_id: str,
                       coordinator: str) -> None:
        report = self._completed_reports.get(execution_id, {}).get(node_id)
        if report is not None:
            self.network.send(self.address, coordinator, TASK_COMPLETED,
                              payload=report, size_bytes=128)
            if self.obs.enabled:
                self.obs.trace.record(self.env.now, "task-report-resent",
                                      self.host.address, node=node_id,
                                      execution=execution_id)

    def _in_spec(self, execution_id: str, entry: dict,
                 link: dict) -> ChannelSpec:
        return ChannelSpec(
            execution_id=execution_id,
            src_node=link["src_node"], src_port=link["src_port"],
            src_host=link["src_host"],
            dst_node=entry["node_id"], dst_port=link["dst_port"],
            dst_host=self.host.address)

    def _out_spec(self, execution_id: str, entry: dict,
                  link: dict) -> ChannelSpec:
        return ChannelSpec(
            execution_id=execution_id,
            src_node=entry["node_id"], src_port=link["src_port"],
            src_host=self.host.address,
            dst_node=link["dst_node"], dst_port=link["dst_port"],
            dst_host=link["dst_host"])

    # -- task execution --------------------------------------------------------
    def _run_task(self, execution_id: str, coordinator: str, entry: dict):
        node_id = entry["node_id"]
        definition = self.registry.resolve(entry["task_name"])
        input_size = entry["input_size"]
        processors = entry.get("processors", 1)
        # gather every input port (values may be None in simulation-only
        # mode, or forwarded wholesale when the task was rescheduled)
        if "forward_inputs" in entry:
            inputs: dict[str, Any] = dict(entry["forward_inputs"])
        elif (execution_id, node_id) in self._aborted_inputs:
            # re-issued after an abort here: the first run already
            # drained the input channels, so reuse what it gathered
            inputs = dict(self._aborted_inputs[(execution_id, node_id)])
        else:
            inputs = {}
            for link in entry["in_links"]:
                payload = yield self.data_manager.receive(
                    execution_id, node_id, link["dst_port"])
                inputs[link["dst_port"]] = payload["value"]
        if self._bounced(execution_id, entry, inputs):
            return
        overloaded = self._overload_test(entry)
        memory = definition.memory_required_mb(input_size)
        duration = self.model.duration(definition, input_size, self.host,
                                       processors=processors)
        slowdown_at_start = self.host.slowdown(extra_memory_mb=memory)
        self.host.task_started(load=1.0, memory_mb=memory)
        self._occupy_participants(entry, duration)
        started = self.env.now
        obs = self.obs
        task_span = None
        if obs.enabled:
            obs.trace.record(started, "task-start", self.host.address,
                             node=node_id, duration=duration,
                             execution=execution_id)
            task_span = obs.spans.begin(
                node_id, "task-execution", self.host.address, started,
                parent_id=obs.spans.lookup(("app", execution_id)),
                task=entry["task_name"])
            obs.spans.bind(("task", execution_id, node_id), task_span)
        finish = self.env.timeout(duration)
        # The overload check is armed after the task's own timeout, so a
        # task ending on a check instant completes before the check.
        watch = [self.env.active_process, overloaded]
        self.env.call_later(MONITOR_INTERVAL_S, self._check_overload, watch)
        try:
            yield finish
        except Interrupt as interrupt:
            # terminated by the overload check
            self.host.task_finished(load=1.0, memory_mb=memory)
            if obs.enabled and task_span is not None:
                obs.trace.record(self.env.now, "task-terminated",
                                 self.host.address, node=node_id,
                                 cause=str(interrupt.cause))
                obs.spans.end(task_span, self.env.now,
                              terminated=str(interrupt.cause))
                obs.metrics.counter(
                    "ac_tasks_terminated_total",
                    help="tasks terminated mid-run").inc(
                        host=self.host.address)
            self._node_status[(execution_id, node_id)] = "aborted"
            self._aborted_inputs[(execution_id, node_id)] = inputs
            self._request_reschedule(execution_id, entry, inputs,
                                     reason=str(interrupt.cause))
            return
        finally:
            watch.clear()
        self.host.task_finished(load=1.0, memory_mb=memory)
        elapsed = self.env.now - started
        if obs.enabled and task_span is not None:
            obs.spans.end(task_span, self.env.now, elapsed=elapsed)
            obs.metrics.counter(
                "ac_tasks_executed_total",
                help="tasks run to completion").inc(host=self.host.address)
            obs.metrics.histogram(
                "ac_task_elapsed_seconds",
                help="task wall time on the simulated machine").observe(
                    elapsed, host=self.host.address)
        outputs = self._compute_outputs(definition, inputs, entry)
        # ship outputs along every outgoing channel
        for link in entry["out_links"]:
            spec = self._out_spec(execution_id, entry, link)
            value = outputs.get(link["src_port"])
            yield from self.data_manager.send_output(
                spec, value, link["size_bytes"])
            yield self._queue_turn()
        self.stats.tasks_executed += 1
        if obs.enabled:
            obs.trace.record(self.env.now, "task-finish", self.host.address,
                             node=node_id, elapsed=elapsed,
                             execution=execution_id)
        report = {
            "execution_id": execution_id, "node_id": node_id,
            "task_name": entry["task_name"], "host": self.host.address,
            "input_size": input_size, "elapsed_s": elapsed,
            "dedicated_elapsed_s": elapsed / max(slowdown_at_start, 1e-12),
            "base_time_at_size_s": definition.base_execution_time(
                input_size, processors=processors),
            "started_s": started,
        }
        if entry.get("is_exit", False):
            report["outputs"] = outputs
        self._node_status[(execution_id, node_id)] = "done"
        self._completed_reports.setdefault(execution_id, {})[node_id] = \
            report
        self.network.send(self.address, coordinator, TASK_COMPLETED,
                          payload=report, size_bytes=128)

    def _overload_test(self, entry: dict) -> Callable[[float], bool]:
        """The entry's overload predicate on a host load: the per-
        application QoS ceiling when one travels with the entry, else
        the site-wide policy."""
        qos_ceiling = entry.get("max_host_load")
        if qos_ceiling is None:
            return self.policy.should_reschedule
        return lambda load: load > qos_ceiling

    def _bounced(self, execution_id: str, entry: dict, inputs: dict) -> bool:
        """The pre-start checks: True when the task may not start here.

        A crashed host silently does nothing.  An overloaded one asks
        for a reschedule, unless the entry is ``forced`` (its attempts
        are exhausted).  Either way the dedup slot is released, so a
        later push may run the task here, and *inputs* are kept for it.
        """
        up = self.host.up
        if up and (entry.get("forced")
                   or not self._overload_test(entry)(self.host.cpu_load)):
            return False
        key = (execution_id, entry["node_id"])
        self._node_status[key] = "aborted"
        self._aborted_inputs[key] = inputs
        if up:
            self._request_reschedule(execution_id, entry, inputs,
                                     reason="overload-before-start")
        return True

    def _queue_turn(self) -> Event:
        """An event already succeeded: yielding it lets the NORMAL
        entries queued for ``now`` run first, so same-tick work
        interleaves with a task's hand-offs.  (A zero timeout would do
        the same, but spend a kernel timer.)"""
        return self.env.event().succeed()

    def _compute_outputs(self, definition, inputs: dict,
                         entry: dict) -> dict:
        """Real results when the implementation and all values exist."""
        expected = set(definition.signature.inputs)
        have_all = expected == set(inputs) and \
            all(v is not None for v in inputs.values())
        if definition.executable and have_all:
            try:
                return definition.execute(inputs, entry.get("params") or {})
            except ExecutionError:
                # numeric failure: propagate Nones downstream; the paper's
                # runtime "intercepts the error messages generated"
                if self.obs.enabled:
                    self.obs.trace.record(
                        self.env.now, "task-numeric-error",
                        self.host.address, node=entry["node_id"])
        return {port: None for port in definition.signature.outputs}

    # -- parallel participants -----------------------------------------------
    def _occupy_participants(self, entry: dict, duration: float) -> None:
        for participant in entry["hosts"][1:]:
            self.network.send(self.address, f"{participant}/{self.SERVICE}",
                              PARALLEL_OCCUPY,
                              payload={"duration": duration,
                                       "node_id": entry["node_id"]},
                              size_bytes=48)

    # -- overload monitoring + rescheduling ------------------------------------
    def _check_overload(self, watch: list) -> None:
        """Terminate the running task when load crosses the threshold,
        else check again in :data:`MONITOR_INTERVAL_S`.

        *watch* is ``[task process, overload predicate]``, emptied when
        the task ends.  Only the *background* load counts — the task's
        own contribution must not trigger its own termination.
        """
        if not watch:
            return
        task_proc, overloaded = watch
        if overloaded(self.host.true_load):
            task_proc.interrupt("overload")
        else:
            self.env.call_later(MONITOR_INTERVAL_S, self._check_overload,
                                watch)

    def _request_reschedule(self, execution_id: str, entry: dict,
                            inputs: dict, reason: str) -> None:
        self.stats.tasks_rescheduled_away += 1
        self.network.send(
            self.address, self.group_manager_addr, RESCHEDULE_REQUEST,
            payload={"execution_id": execution_id, "entry": entry,
                     "host": self.host.address, "reason": reason,
                     "inputs": inputs, "time": self.env.now},
            size_bytes=128)

    def stop(self) -> None:
        """Terminate the controller's inbox process (teardown)."""
        if self._inbox_proc.is_alive:
            self._inbox_proc.interrupt("stop")
