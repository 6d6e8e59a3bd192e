"""The per-host Monitor daemon.

Paper section 2.3.1: "Each VDCE machine has a Monitor daemon that
periodically measures the up-to-date processor parameters, i.e., CPU load
and memory availability.  The measured values are sent to the group
leader machine."

The daemon also answers the Group Manager's echo packets; a crashed host
(``host.up == False``) answers nothing — the network layer drops both
directions — which is precisely how failures become detectable.
"""

from __future__ import annotations

from repro.net import ECHO_REPLY, ECHO_REQUEST, LOAD_REPORT
from repro.net.network import Network
from repro.obs import OBS_OFF, Observability
from repro.resources.host import Host
from repro.simcore.engine import Environment
from repro.util.errors import ConfigurationError


class MonitorDaemon:
    """Periodic load/memory sampling + echo response, one per host."""

    SERVICE = "monitor"

    def __init__(self, env: Environment, network: Network, host: Host,
                 group_leader_addr: str, period_s: float = 2.0,
                 obs: Observability | None = None) -> None:
        if period_s <= 0:
            raise ConfigurationError("monitor period must be positive")
        self.env = env
        self.network = network
        self.host = host
        self.group_leader_addr = group_leader_addr
        self.period_s = period_s
        self.obs = obs if obs is not None else OBS_OFF
        self.address = f"{host.address}/{self.SERVICE}"
        self.mailbox = network.register(self.address)
        self.reports_sent = 0
        #: observed local up/down transitions: (time, "crashed"/"recovered")
        self.transitions: list[tuple[float, str]] = []
        #: server-liveness detector (a recovery.failover.HeartbeatTracker)
        #: ticked from the sampling loop when this host is a standby
        self._server_tracker = None
        self._sampler = env.process(self._sample_loop(), name=f"mon:{host.name}")
        self._responder = env.process(self._respond_loop(),
                                      name=f"mon-echo:{host.name}")

    # -- measurement ---------------------------------------------------------
    def measure(self) -> dict:
        """One sample of the host's dynamic attributes."""
        return {
            "host": self.host.address,
            "cpu_load": self.host.cpu_load,
            "available_memory_mb": self.host.memory_available_mb,
            "time": self.env.now,
        }

    def _sample_loop(self):
        """Sample, watch the server, then watch the host, each period.

        A down host measures nothing.  When this host is a failover
        standby the loop also ticks the attached heartbeat tracker,
        which promotes once the server has been silent past this
        standby's rank-staggered deadline.

        The Group Manager infers remote crashes from echo silence; the
        loop records the host's own up/down transitions into the trace
        so post-mortem analysis can separate detection latency from the
        fault itself.  On recovery it pushes a load report at once
        instead of waiting out the period, so repositories catch up a
        period earlier.
        """
        obs = self.obs
        was_up = self.host.up
        while True:
            yield self.env.timeout(self.period_s)
            up = self.host.up
            if up:
                sample = self.measure()
                self.network.send(self.address, self.group_leader_addr,
                                  LOAD_REPORT, payload=sample,
                                  size_bytes=64)
                self.reports_sent += 1
                if obs.enabled:
                    obs.metrics.counter(
                        "monitor_reports_total",
                        help="load reports sent, by host").inc(
                            host=self.host.address)
                    obs.metrics.gauge(
                        "host_cpu_load",
                        help="last monitor-sampled CPU load").set(
                            sample["cpu_load"], host=self.host.address)
                if self._server_tracker is not None:
                    self._server_tracker.tick(self.env.now)
            if up == was_up:
                continue
            was_up = up
            kind = "recovered" if up else "crashed"
            self.transitions.append((self.env.now, kind))
            if obs.enabled:
                obs.trace.record(self.env.now, f"mon:{kind}", self.address)
                obs.metrics.counter(
                    "monitor_transitions_total",
                    help="locally observed up/down transitions").inc(
                        host=self.host.address, kind=kind)
            if up:
                self.network.send(self.address, self.group_leader_addr,
                                  LOAD_REPORT, payload=self.measure(),
                                  size_bytes=64)
                self.reports_sent += 1

    # -- server failure detection (failover standbys) ------------------------
    def watch_server(self, tracker) -> None:
        """Attach (or with ``None`` detach) a server heartbeat tracker."""
        self._server_tracker = tracker

    # -- echo ---------------------------------------------------------------
    def _respond_loop(self):
        while True:
            msg = yield self.mailbox.get()
            if msg.kind == ECHO_REQUEST and self.host.up:
                self.network.send(self.address, msg.src, ECHO_REPLY,
                                  payload={"host": self.host.address,
                                           "echo_seq": msg.payload},
                                  size_bytes=32)

    def stop(self) -> None:
        """Terminate the daemon's processes (simulation teardown)."""
        for proc in (self._sampler, self._responder):
            if proc.is_alive:
                proc.interrupt("stop")
