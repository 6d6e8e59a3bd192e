"""The Data Manager: socket-style point-to-point inter-task communication.

Paper section 2.3.2 / Figure 7: "The VDCE Data Manager is a socket-based,
point-to-point communication system for inter-task communications. ...
the Data Manager activates the communication proxy and sends the resource
allocation information, including the socket number, IP address for
target machine, etc. ... After the setup is completed successfully, the
communication proxy sends an acknowledgment to the Application
Controller."

In the simulation backend a *channel* is a registered endpoint keyed by
``(execution, consumer node, input port)``; setup is a real message
round-trip between the two hosts' Data Managers (so setup latency scales
with channel count and WAN distance — experiment F7), and data messages
carry both the modelled payload size and, when real task implementations
are executing, the actual Python value (byte-order-converted when the
endpoint architectures differ).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net import CHANNEL_ACK, CHANNEL_SETUP, TASK_DATA
from repro.net.network import Network
from repro.obs import OBS_OFF, Observability
from repro.resources.host import Host
from repro.runtime.data.conversion import conversion_cost_s, convert
from repro.runtime.data.messaging import RetryPolicy
from repro.simcore.engine import Environment
from repro.simcore.store import Store
from repro.util.errors import ChannelError


def channel_key(execution_id: str, dst_node: str, dst_port: str) -> str:
    return f"{execution_id}:{dst_node}:{dst_port}"


@dataclass(frozen=True)
class ChannelSpec:
    """One point-to-point channel (producer port -> consumer port)."""

    execution_id: str
    src_node: str
    src_port: str
    src_host: str
    dst_node: str
    dst_port: str
    dst_host: str

    @property
    def key(self) -> str:
        return channel_key(self.execution_id, self.dst_node, self.dst_port)

    @property
    def crosses_hosts(self) -> bool:
        return self.src_host != self.dst_host


@dataclass
class DataManagerStats:
    channels_opened: int = 0
    setups_requested: int = 0
    retries: int = 0
    setups_abandoned: int = 0
    data_messages_sent: int = 0
    data_bytes_sent: float = 0.0
    conversions: int = 0
    conversion_time_s: float = 0.0


class DataManager:
    """One per VDCE machine; owns that machine's communication proxies."""

    SERVICE = "datamgr"

    def __init__(self, env: Environment, network: Network, host: Host,
                 byte_orders: dict[str, str] | None = None,
                 retry_policy: RetryPolicy | None = None,
                 obs: Observability | None = None) -> None:
        self.env = env
        self.network = network
        self.host = host
        self.retry_policy = retry_policy or RetryPolicy()
        self.obs = obs if obs is not None else OBS_OFF
        self.address = f"{host.address}/{self.SERVICE}"
        self.mailbox = network.register(self.address)
        #: host address -> byte order, for conversion decisions; filled by
        #: the facade (it knows every host's architecture).
        self.byte_orders = byte_orders if byte_orders is not None else {}
        self.stats = DataManagerStats()
        self._endpoints: dict[str, Store] = {}
        self._pending_acks: dict[str, object] = {}
        self._inbox_proc = env.process(self._inbox_loop(),
                                       name=f"dm:{self.address}")

    # -- endpoints (receive side) ----------------------------------------
    def open_endpoint(self, spec: ChannelSpec) -> Store:
        """Create the receive mailbox for a channel terminating here.

        Idempotent: the producer's setup request and the consumer's own
        Application Controller both try to open the endpoint, in an order
        that depends on message timing — whichever arrives first wins and
        the second call returns the same store.
        """
        if spec.dst_host != self.host.address:
            raise ChannelError(
                f"endpoint {spec.key} belongs to {spec.dst_host}, not "
                f"{self.host.address}")
        store = self._endpoints.get(spec.key)
        if store is None:
            store = Store(self.env)
            self._endpoints[spec.key] = store
            self.stats.channels_opened += 1
        return store

    def endpoint(self, key: str) -> Store:
        """Fetch an open channel's receive store by key."""
        try:
            return self._endpoints[key]
        except KeyError:
            raise ChannelError(f"no open channel {key!r}") from None

    def has_endpoint(self, key: str) -> bool:
        """True when the receive store for *key* is open on this host."""
        return key in self._endpoints

    def close_execution(self, execution_id: str) -> None:
        """Tear down all channels of one finished execution."""
        prefix = f"{execution_id}:"
        for key in [k for k in self._endpoints if k.startswith(prefix)]:
            del self._endpoints[key]

    # -- setup handshake (send side; Figure 7 steps 2-4) ---------------------
    def _setup_one(self, spec: ChannelSpec):
        """Process: handshake one cross-host channel with retry/backoff.

        Each unanswered setup is resent after the policy's (growing)
        timeout; returns True on ack, False when the budget is exhausted
        — by then either the peer host is down (the Group Manager will
        report it) or the link is partitioned beyond the retry horizon.
        """
        policy = self.retry_policy
        obs = self.obs
        for attempt in range(1, policy.max_attempts + 1):
            ack = self.env.event()
            self._pending_acks[spec.key] = ack
            self.stats.setups_requested += 1
            if obs.enabled:
                obs.metrics.counter(
                    "dm_setups_requested_total",
                    help="channel-setup handshakes sent").inc(
                        host=self.host.address)
            self.network.send(
                self.address, f"{spec.dst_host}/{self.SERVICE}",
                CHANNEL_SETUP,
                payload={"spec": spec, "reply_to": self.address},
                size_bytes=96)
            index, _ = yield self.env.any_of(
                [ack, self.env.timeout(policy.timeout_for(attempt))])
            if index == 0:
                return True
            if attempt < policy.max_attempts:
                self.stats.retries += 1
                if obs.enabled:
                    obs.trace.record(self.env.now, "dm:retry", self.address,
                                     key=spec.key, attempt=attempt + 1,
                                     dst=spec.dst_host)
                    obs.metrics.counter(
                        "dm_setup_retries_total",
                        help="channel-setup retries").inc(
                            host=self.host.address)
                    obs.metrics.counter(
                        "retries_total",
                        help="retransmissions across all subsystems").inc(
                            component="data-manager",
                            host=self.host.address)
        self.stats.setups_abandoned += 1
        if obs.enabled:
            obs.trace.record(self.env.now, "dm:setup-abandoned", self.address,
                             key=spec.key, dst=spec.dst_host,
                             attempts=policy.max_attempts)
            obs.metrics.counter(
                "dm_setups_abandoned_total",
                help="channel setups abandoned after retries").inc(
                    host=self.host.address)
            obs.metrics.counter(
                "delivery_timeouts_total",
                help="exchanges abandoned after the retry budget").inc(
                    component="data-manager", host=self.host.address)
        self._pending_acks.pop(spec.key, None)
        return False

    def setup_channels(self, specs: list[ChannelSpec]):
        """Process: handshake every outgoing cross-host channel.

        Local (same-host) channels are opened synchronously by the
        consumer side; cross-host channels require a setup round-trip to
        the peer Data Manager, retried per :class:`RetryPolicy`.
        Exhausted handshakes are dropped — safe because the consumer
        opens its own endpoints, so data still lands if the peer comes
        back.
        """
        procs = []
        for spec in specs:
            if spec.src_host != self.host.address:
                raise ChannelError(
                    f"channel {spec.key} does not originate at "
                    f"{self.host.address}")
            if not spec.crosses_hosts:
                continue  # receiver opened it locally; no wire handshake
            procs.append(self.env.process(
                self._setup_one(spec), name=f"dm:setup:{spec.key}"))
        if procs:
            yield self.env.all_of(procs)
        if self.obs.enabled:
            self.obs.trace.record(self.env.now, "dm:channels-ready",
                                  self.address, count=len(specs))
        return len(specs)

    def _inbox_loop(self):
        while True:
            msg = yield self.mailbox.get()
            if msg.kind == CHANNEL_SETUP:
                spec: ChannelSpec = msg.payload["spec"]
                if spec.key not in self._endpoints:
                    self.open_endpoint(spec)
                self.network.send(self.address, msg.payload["reply_to"],
                                  CHANNEL_ACK, payload={"key": spec.key},
                                  size_bytes=32)
            elif msg.kind == CHANNEL_ACK:
                ack = self._pending_acks.pop(msg.payload["key"], None)
                if ack is not None and not ack.triggered:
                    ack.succeed()
            elif msg.kind == TASK_DATA:
                self._on_task_data(msg)

    # -- data transfer ----------------------------------------------------
    def send_output(self, spec: ChannelSpec, value, size_bytes: float):
        """Process: ship one output along a channel (with conversion).

        The sender pays the conversion cost before the wire transfer when
        the two hosts' byte orders differ — the paper's heterogeneous
        data-conversion service.
        """
        src_order = self.byte_orders.get(spec.src_host, "big")
        dst_order = self.byte_orders.get(spec.dst_host, "big")
        cost = conversion_cost_s(size_bytes, src_order, dst_order)
        if cost > 0:
            self.stats.conversions += 1
            self.stats.conversion_time_s += cost
            value = convert(value, src_order, dst_order)
            yield self.env.timeout(cost)
        self.stats.data_messages_sent += 1
        self.stats.data_bytes_sent += size_bytes
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter(
                "dm_data_messages_total",
                help="task-data messages shipped").inc(
                    host=self.host.address)
            obs.metrics.counter(
                "dm_data_bytes_total",
                help="task-data bytes shipped").inc(
                    size_bytes, host=self.host.address)
        if spec.crosses_hosts:
            if obs.enabled:
                # Parent the resulting message-delivery span under the
                # producing task.  send() is synchronous — no yields
                # between set and reset — so the hand-off is exact even
                # with many tasks in flight.
                obs.current_parent = obs.spans.lookup(
                    ("task", spec.execution_id, spec.src_node))
            self.network.send(self.address, f"{spec.dst_host}/{self.SERVICE}",
                              TASK_DATA,
                              payload={"key": spec.key, "value": value,
                                       "src_node": spec.src_node},
                              size_bytes=size_bytes)
            if obs.enabled:
                obs.current_parent = None
        else:
            # same machine: inter-process communication (pipes/shm), not
            # the network — modelled as immediate local delivery.  The
            # endpoint may be gone when the consumer was rescheduled away
            # (e.g. this host crashed and recovered with stale work):
            # drop, exactly like the cross-host orphan-data path.
            store = self._endpoints.get(spec.key)
            if store is None:
                if obs.enabled:
                    obs.trace.record(self.env.now, "dm:orphan-data",
                                     self.address, key=spec.key)
            else:
                store.put({"key": spec.key, "value": value,
                           "src_node": spec.src_node})
        return size_bytes

    def _on_task_data(self, msg) -> None:
        key = msg.payload["key"]
        store = self._endpoints.get(key)
        if store is None:
            # Channel torn down (e.g. consumer rescheduled): drop.
            if self.obs.enabled:
                self.obs.trace.record(self.env.now, "dm:orphan-data",
                                      self.address, key=key)
            return
        store.put(msg.payload)

    def receive(self, execution_id: str, node_id: str, port: str):
        """Event that fires with the payload dict for one input port."""
        return self.endpoint(channel_key(execution_id, node_id, port)).get()

    def stop(self) -> None:
        """Terminate the manager's inbox process (teardown)."""
        if self._inbox_proc.is_alive:
            self._inbox_proc.interrupt("stop")
