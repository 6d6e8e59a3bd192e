"""Server heartbeats and the deterministic standby failure detector.

The :class:`ServerHeartbeatDaemon` runs at the active server and beats
periodically to every standby.  When the server machine is down, its
``site/server`` source address drops all outbound traffic, so the beat
goes silent — the same silence-is-failure model the Group Manager's
echo pipeline uses for ordinary hosts.

Detection rides on the per-host :class:`~repro.runtime.control.monitor.
MonitorDaemon`: its sampling loop ticks the standby's
:class:`HeartbeatTracker` once per period, so the monitor's crash watch
covers the server host too.  The promotion rule is deterministic by
construction — **lowest-address live standby wins**: the tracker of
rank *r* (the standby's index in the sorted standby-address list) only
fires after ``suspect_after_s + r * promote_grace_s`` of heartbeat
silence, so the lowest live address always promotes first and a dead
standby simply never ticks (its monitor observes ``host.up == False``).
No elections, no races, sim-time exact.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.net import SERVER_HEARTBEAT
from repro.net.network import Network
from repro.resources.site import Site
from repro.simcore.engine import Environment
from repro.util.errors import ConfigurationError

#: service suffix of the heartbeat source endpoint on the server machine
HEARTBEAT_SERVICE = "heartbeat"
#: how often a protected site's server beats to its standbys
HEARTBEAT_PERIOD_S = 2.0


class ServerHeartbeatDaemon:
    """Periodic I-am-alive beat from the active server to its standbys."""

    def __init__(self, env: Environment, network: Network, site: Site,
                 standby_addrs: list[str]) -> None:
        self.env = env
        self.network = network
        self.site = site
        self.standby_addrs = sorted(standby_addrs)
        self.address = f"{site.name}/server/{HEARTBEAT_SERVICE}"
        self._proc = env.process(self._beat_loop(),
                                 name=f"hb:{self.address}")

    def _beat_loop(self):
        seq = 0
        while True:
            yield self.env.timeout(HEARTBEAT_PERIOD_S)
            seq += 1
            # a down server's sends are dropped by the network layer;
            # keeping the loop alive models the machine, not the role
            self.network.send_batch(
                self.address, self.standby_addrs, SERVER_HEARTBEAT,
                payload={"site": self.site.name, "seq": seq}, size_bytes=32)

    def stop(self) -> None:
        """Terminate the beat process (teardown or role hand-off)."""
        if self._proc.is_alive:
            self._proc.interrupt("stop")


class HeartbeatTracker:
    """One standby's view of server liveness, ticked by its monitor.

    ``tick(now)`` is called from the host's MonitorDaemon sampling loop
    each period.  The tracker suspects the server after
    ``suspect_after_s`` of silence and fires ``on_promote(replica,
    suspected_at)`` once the silence also exceeds this standby's
    rank-staggered grace — implementing lowest-address-wins without any
    message exchange between standbys.
    """

    def __init__(self, replica: Any, rank: int, suspect_after_s: float,
                 promote_grace_s: float,
                 on_promote: Callable[[Any, float], None]) -> None:
        if suspect_after_s <= 0 or promote_grace_s < 0:
            raise ConfigurationError(
                "suspect_after_s must be positive and promote_grace_s "
                ">= 0")
        self.replica = replica
        self.rank = rank
        self.suspect_after_s = suspect_after_s
        self.promote_grace_s = promote_grace_s
        self.on_promote = on_promote
        self.suspected_at: float | None = None

    @property
    def promote_after_s(self) -> float:
        """Total silence this rank waits for before promoting."""
        return self.suspect_after_s + self.rank * self.promote_grace_s

    def tick(self, now: float) -> None:
        """One detector evaluation (called by the monitor sampling loop)."""
        replica = self.replica
        if not replica.active or not replica.host.up:
            # a dead standby observes nothing; clearing suspicion keeps
            # a stale pre-crash suspicion from firing right at recovery
            self.suspected_at = None
            return
        silence = now - replica.last_heartbeat
        if silence < self.suspect_after_s:
            self.suspected_at = None
            return
        if self.suspected_at is None:
            self.suspected_at = now
        if silence >= self.promote_after_s:
            self.on_promote(replica, self.suspected_at)
