"""Federation-level liveness: heartbeats, suspicion, join/leave.

One :class:`MembershipDaemon` runs on every site's server machine (the
service address ``<site>/server/membership``) and maintains that site's
*view* of every peer:

``member`` ── missed heartbeats ──▶ ``quarantined`` ── heartbeat ──▶
``member`` (a *rejoin*), or ── SITE_LEAVE ──▶ ``left`` (terminal).

The protocol is a single periodic loop per daemon — one batched
heartbeat fan-out to the sorted peer list, then one suspicion sweep in
sorted order — so membership costs O(sites) work per beat, entirely off
the scheduling hot path, and every transition happens at a
deterministic simulated instant.  Views are **per-observer** by design:
during a partition each side quarantines the other, both shed the
unreachable capacity, and both reconcile on rejoin (duplicate task
completions are absorbed by the existing idempotency keys).

Heartbeats carry the sender's directory journal ``generation``
(:class:`~repro.federation.catchup.DirectorySync`), so on rejoin the
daemon knows exactly where its view of the peer's directory stops and
pulls the missed mutations with a SYNC_REQUEST — delta when the peer's
journal still covers the cursor, full snapshot otherwise.

Every transition is appended to a ledger whose canonical JSON
(:meth:`MembershipDaemon.ledger_json`) is byte-identical across
same-seed runs — the determinism contract the chaos partition suite
asserts.  Transitions are not written to the replication WAL: a
promoted server rebuilds nothing from them.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.federation.catchup import DirectorySync
from repro.net import (
    SITE_HEARTBEAT,
    SITE_JOIN,
    SITE_LEAVE,
    SYNC_REPLY,
    SYNC_REQUEST,
)
from repro.net.network import Network
from repro.obs import OBS_OFF, Observability
from repro.resources.site import Site
from repro.simcore.engine import Environment
from repro.util.errors import ConfigurationError

#: peer statuses (the state machine above)
MEMBER = "member"
QUARANTINED = "quarantined"
LEFT = "left"


#: how often each site's daemon beats to its peers
HEARTBEAT_PERIOD_S = 2.0
#: the silence horizon: a member peer not heard from for longer is
#: quarantined at the next beat.  It exceeds the beat period by enough
#: slack to absorb WAN latency, tolerating three lost beats.
SUSPECT_AFTER_S = 6.5
#: transfer-model size of one heartbeat message
HEARTBEAT_BYTES = 64.0


@dataclass
class PeerView:
    """One observer's knowledge of one peer site."""

    name: str
    status: str = MEMBER
    last_heard: float = 0.0
    #: the peer's directory journal generation, as of the last heartbeat
    #: — the catch-up cursor a rejoin uses
    generation: int = 0
    quarantined_at: float | None = None
    span_id: int | None = None


class MembershipDaemon:
    """One site's membership endpoint: beats out, suspicion in."""

    SERVICE = "membership"

    def __init__(self, env: Environment, network: Network, site: Site,
                 sync: DirectorySync,
                 obs: Observability | None = None,
                 on_quarantine: Callable[[str, str], None] | None = None,
                 on_rejoin: Callable[[str, str], None] | None = None
                 ) -> None:
        self.env = env
        self.network = network
        self.site = site
        self.sync = sync
        self.obs = obs if obs is not None else OBS_OFF
        self.on_quarantine = on_quarantine
        self.on_rejoin = on_rejoin
        self.address = f"{site.name}/server/{self.SERVICE}"
        self.mailbox = network.register(self.address)
        self.peers: dict[str, PeerView] = {}
        #: ordered transition ledger; ledger_json() is the canonical form
        self.events: list[dict[str, Any]] = []
        self._was_dark = False
        self._beat_proc = env.process(
            self._beat_loop(), name=f"membership:{site.name}")
        self._inbox_proc = env.process(
            self._inbox_loop(), name=f"membership-inbox:{site.name}")

    # -- peer bootstrap -----------------------------------------------------
    def seed_peer(self, name: str, generation: int = 0) -> PeerView:
        """Register a peer known at enable/join time (status member)."""
        if name == self.site.name:
            raise ConfigurationError(
                f"site {name!r} cannot be its own membership peer")
        view = PeerView(name=name, last_heard=self.env.now,
                        generation=generation)
        self.peers[name] = view
        return view

    # -- aggregate views ----------------------------------------------------
    def is_usable(self, peer: str) -> bool:
        """May *peer* be scheduled onto, from this site's viewpoint?"""
        view = self.peers.get(peer)
        return view is not None and view.status == MEMBER

    def usable_sites(self) -> list[str]:
        """Member peers, sorted (self excluded — always usable locally)."""
        return sorted(name for name, view in self.peers.items()
                      if view.status == MEMBER)

    def quarantined_sites(self) -> list[str]:
        return sorted(name for name, view in self.peers.items()
                      if view.status == QUARANTINED)

    # -- the one periodic loop ---------------------------------------------
    def _beat_loop(self):
        while True:
            yield self.env.timeout(HEARTBEAT_PERIOD_S)
            if not self.site.server_is_up():
                # a dark server neither beats nor judges its peers
                self._was_dark = True
                continue
            now = self.env.now
            if self._was_dark:
                # fresh grace after our own outage: stale silence from
                # the dark window is our fault, not the peers'
                self._was_dark = False
                for name in sorted(self.peers):
                    self.peers[name].last_heard = now
            targets = [name for name in sorted(self.peers)
                       if self.peers[name].status != LEFT]
            if targets:
                self.network.send_batch(
                    self.address,
                    [f"{peer}/server/{self.SERVICE}" for peer in targets],
                    SITE_HEARTBEAT,
                    payload={"site": self.site.name,
                             "generation": self.sync.generation()},
                    size_bytes=HEARTBEAT_BYTES)
            horizon = now - SUSPECT_AFTER_S
            for name in sorted(self.peers):
                view = self.peers[name]
                if view.status == MEMBER and view.last_heard < horizon:
                    self._quarantine(view)

    # -- inbox --------------------------------------------------------------
    def _inbox_loop(self):
        while True:
            msg = yield self.mailbox.get()
            handler = {
                SITE_HEARTBEAT: self._on_heartbeat,
                SITE_JOIN: self._on_site_join,
                SITE_LEAVE: self._on_site_leave,
                SYNC_REQUEST: self._on_sync_request,
                SYNC_REPLY: self._on_sync_reply,
            }.get(msg.kind)
            if handler is not None:
                handler(msg)

    def _on_heartbeat(self, msg) -> None:
        payload = msg.payload
        peer = payload["site"]
        view = self.peers.get(peer)
        if view is None:
            # a joiner whose SITE_JOIN announcement we missed
            view = self._admit(peer, via="heartbeat")
        elif view.status == LEFT:
            return  # stale in-flight beat from a departed site
        elif view.status == QUARANTINED:
            self._rejoin(view)
        view.last_heard = self.env.now
        view.generation = payload["generation"]

    def _on_site_join(self, msg) -> None:
        peer = msg.payload["site"]
        view = self.peers.get(peer)
        if view is None:
            view = self._admit(peer, via="announce")
        elif view.status == LEFT:
            # departed site coming back: treated as a fresh join
            view.status = MEMBER
            self._transition("join", peer, via="announce")
        elif view.status == QUARANTINED:
            self._rejoin(view)
        view.last_heard = self.env.now
        view.generation = msg.payload["generation"]

    def _on_site_leave(self, msg) -> None:
        peer = msg.payload["site"]
        view = self.peers.get(peer)
        if view is None or view.status == LEFT:
            return
        if view.span_id is not None and self.obs.enabled:
            self.obs.spans.end(view.span_id, self.env.now, outcome="left")
            view.span_id = None
        view.status = LEFT
        self._transition("leave", peer)

    def _on_sync_request(self, msg) -> None:
        reply = self.sync.build_reply(msg.payload["cursor"])
        reply["site"] = self.site.name
        self.network.send(self.address, msg.src, SYNC_REPLY,
                          payload=reply,
                          size_bytes=DirectorySync.reply_size_bytes(reply))
        self._transition("sync-served", msg.payload["site"],
                         mode=reply["mode"])

    def _on_sync_reply(self, msg) -> None:
        payload = msg.payload
        applied = self.sync.apply_reply(payload)
        self._transition("catch-up", payload["site"],
                         mode=payload["mode"], applied=applied)
        if self.obs.enabled:
            self.obs.metrics.counter(
                "membership_catchup_rows_total",
                help="directory rows applied by catch-up transfers").inc(
                    applied, site=self.site.name, mode=payload["mode"])

    # -- transitions --------------------------------------------------------
    def _transition(self, event: str, peer: str, **detail: Any) -> None:
        """Ledger + trace record + counter for one membership event."""
        self.events.append({"t": self.env.now, "site": self.site.name,
                            "event": event, "peer": peer, **detail})
        if self.obs.enabled:
            self.obs.trace.record(self.env.now, f"membership:{event}",
                                  self.address, peer=peer, **detail)
            self.obs.metrics.counter(
                "membership_transitions_total",
                help="membership state transitions observed").inc(
                    site=self.site.name, event=event)

    def _admit(self, peer: str, via: str) -> PeerView:
        view = self.seed_peer(peer)
        self._transition("join", peer, via=via)
        return view

    def _quarantine(self, view: PeerView) -> None:
        view.status = QUARANTINED
        view.quarantined_at = self.env.now
        if self.obs.enabled:
            view.span_id = self.obs.spans.begin(
                f"quarantine:{view.name}", "membership", self.address,
                self.env.now, peer=view.name)
        self._transition("quarantine", view.name)
        if self.on_quarantine is not None:
            self.on_quarantine(self.site.name, view.name)

    def _rejoin(self, view: PeerView) -> None:
        cursor = view.generation
        view.status = MEMBER
        view.quarantined_at = None
        if view.span_id is not None and self.obs.enabled:
            self.obs.spans.end(view.span_id, self.env.now,
                               outcome="rejoined")
            view.span_id = None
        self._transition("rejoin", view.name, cursor=cursor)
        # pull the directory mutations the partition made us miss
        self.network.send(self.address,
                          f"{view.name}/server/{self.SERVICE}",
                          SYNC_REQUEST,
                          payload={"site": self.site.name, "cursor": cursor},
                          size_bytes=64)
        if self.on_rejoin is not None:
            self.on_rejoin(self.site.name, view.name)

    # -- explicit elastic operations (driven by the facade) ------------------
    def announce_join(self) -> None:
        """Multicast SITE_JOIN to every seeded peer (joiner side)."""
        targets = [name for name in sorted(self.peers)
                   if self.peers[name].status != LEFT]
        if targets:
            self.network.send_batch(
                self.address,
                [f"{peer}/server/{self.SERVICE}" for peer in targets],
                SITE_JOIN,
                payload={"site": self.site.name,
                         "generation": self.sync.generation()},
                size_bytes=64)
        self._transition("announce-join", self.site.name)

    def announce_leave(self) -> None:
        """Multicast SITE_LEAVE to every peer (leaver side, after drain)."""
        targets = [name for name in sorted(self.peers)
                   if self.peers[name].status != LEFT]
        if targets:
            self.network.send_batch(
                self.address,
                [f"{peer}/server/{self.SERVICE}" for peer in targets],
                SITE_LEAVE,
                payload={"site": self.site.name},
                size_bytes=64)
        self._transition("announce-leave", self.site.name)

    def request_snapshot(self, sponsor: str) -> None:
        """Ask *sponsor* for a full directory snapshot (joiner bootstrap)."""
        self.network.send(self.address,
                          f"{sponsor}/server/{self.SERVICE}",
                          SYNC_REQUEST,
                          payload={"site": self.site.name, "cursor": None},
                          size_bytes=64)

    # -- ledger -------------------------------------------------------------
    def ledger_json(self) -> str:
        """Canonical JSON of this site's membership ledger."""
        return json.dumps(self.events, sort_keys=True,
                          separators=(",", ":"))

    def stop(self) -> None:
        """Terminate both daemon processes (teardown / site_leave)."""
        if self._beat_proc.is_alive:
            self._beat_proc.interrupt("stop")
        if self._inbox_proc.is_alive:
            self._inbox_proc.interrupt("stop")


class Federation:
    """The facade-level aggregate over every site's membership daemon."""

    def __init__(self) -> None:
        self.daemons: dict[str, MembershipDaemon] = {}

    def add(self, daemon: MembershipDaemon) -> None:
        self.daemons[daemon.site.name] = daemon

    def remove(self, site: str) -> None:
        self.daemons.pop(site, None)

    def daemon(self, site: str) -> MembershipDaemon:
        try:
            return self.daemons[site]
        except KeyError:
            raise ConfigurationError(
                f"no membership daemon for site {site!r}") from None

    def is_usable(self, observer: str, peer: str) -> bool:
        """Is *peer* schedulable from *observer*'s point of view?"""
        if observer == peer:
            return True
        return self.daemon(observer).is_usable(peer)

    def usable_filter(self, observer: str) -> Callable[[str], bool]:
        """The per-observer predicate schedulers exclude sites with."""
        return lambda peer: self.is_usable(observer, peer)

    def quarantined(self, observer: str) -> list[str]:
        return self.daemon(observer).quarantined_sites()

    def ledger_json(self) -> str:
        """Canonical JSON of every site's ledger, keyed by site name."""
        return json.dumps(
            {site: self.daemons[site].events
             for site in sorted(self.daemons)},
            sort_keys=True, separators=(",", ":"))
