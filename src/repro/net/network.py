"""The simulated message network connecting VDCE daemons.

Endpoints register a mailbox under a hierarchical address
``site/host[/service]``; registration resolves the address's site and
host once.  :meth:`Network.send` prices the transfer from the
:class:`~repro.net.topology.Topology`'s cached route (WAN path between
sites, LAN inside a site; loopback inside a host is priced here) and
delivers the message into the destination mailbox after that delay.
Messages to hosts that are down are silently dropped — exactly the
failure model the Group Manager's echo packets are designed to detect
(paper section 2.3.1).

The network also keeps per-kind traffic counters, which back the
monitoring-traffic experiment (F6) and the setup-cost experiment (F7).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from repro.analysis import hooks
from repro.net.message import Message
from repro.net.topology import Topology
from repro.obs import OBS_OFF, Observability
from repro.simcore.engine import Environment
from repro.simcore.store import Store
from repro.util.errors import ChannelError, ConfigurationError

_INF = float("inf")


@lru_cache(maxsize=4096)
def split_address(addr: str) -> tuple[str, str]:
    """Split ``site/host[/service]`` into ``(site, host)``.

    Addresses with no ``/`` are site-level actors (e.g. a site manager):
    site == host == addr.  The function is pure, and every ``send``
    splits its sender (destinations were split at ``register``), so
    results are memoized.
    """
    parts = addr.split("/")
    if not parts[0]:
        raise ConfigurationError(f"malformed address {addr!r}")
    if len(parts) == 1:
        return parts[0], parts[0]
    return parts[0], f"{parts[0]}/{parts[1]}"


class _AlwaysUp:
    """The liveness of a host key nothing else answers for."""

    __slots__ = ()

    up = True


#: liveness every host key resolves to unless a resolver installed with
#: :meth:`Network.set_liveness` says otherwise
ALWAYS_UP = _AlwaysUp()


@dataclass(frozen=True)
class FaultAction:
    """Verdict a fault hook returns for one message.

    ``drop`` discards the message outright; otherwise ``extra_delay_s``
    is added to the modelled delay, and ``duplicates`` extra copies are
    delivered alongside the original.
    """

    drop: bool = False
    extra_delay_s: float = 0.0
    duplicates: int = 0


@dataclass
class TrafficStats:
    """Message/byte counters, overall and per message kind."""

    messages: int = 0
    bytes: float = 0.0
    dropped: int = 0
    injected_drops: int = 0
    partition_drops: int = 0
    injected_duplicates: int = 0
    by_kind: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes_by_kind: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))


class Network:
    """Latency/bandwidth-modelled message delivery between endpoints."""

    __slots__ = ("env", "topology",
                 "stats", "_endpoints", "_live", "_resolve", "fault_hook",
                 "obs", "_m_messages", "_m_bytes", "_m_dropped", "_m_delay")

    #: software cost every message pays on top of the wire time
    per_message_overhead_s = 1e-4

    def __init__(self, env: Environment, topology: Topology) -> None:
        self.env = env
        self.topology = topology
        self.stats = TrafficStats()
        #: address -> (mailbox, site, host), resolved once at register
        self._endpoints: dict[str, tuple[Store, str, str]] = {}
        #: host key (``site/host``) -> its liveness: an object whose
        #: ``up`` flag is read on every check, resolved once per key by
        #: the resolver :meth:`set_liveness` installs
        self._live: dict[str, Any] = {}
        self._resolve: Callable[[str], Any] = lambda host: ALWAYS_UP
        #: optional per-message fault hook returning a
        #: :class:`FaultAction` (or None for no fault); installed by
        #: :class:`repro.faults.FaultInjector`.
        self.fault_hook: Callable[[Message], FaultAction | None] | None = None
        self.set_observability(OBS_OFF)

    def set_observability(self, obs: Observability) -> None:
        """Attach an :class:`~repro.obs.Observability` handle.

        Registers this layer's instruments up front so ``send`` only
        records (no registry lookups on the hot path).  The facade calls
        this during construction; standalone Networks keep the inert
        :data:`~repro.obs.OBS_OFF` default.
        """
        self.obs = obs
        metrics = obs.metrics
        self._m_messages = metrics.counter(
            "net_messages_total", help="messages sent, by kind")
        self._m_bytes = metrics.counter(
            "net_bytes_total", help="payload bytes sent, by kind")
        self._m_dropped = metrics.counter(
            "net_dropped_total", help="messages dropped, by reason")
        self._m_delay = metrics.histogram(
            "net_delivery_delay_seconds",
            help="modelled delivery delay, by kind")

    # -- liveness ---------------------------------------------------------
    def set_liveness(self, resolve: Callable[[str], Any]) -> None:
        """Install how a host key resolves to its liveness.

        *resolve* maps a host key (``site/host``, or a bare site-level
        address) to an object with a boolean ``up`` attribute, which every
        check reads; each key is resolved on its first check and kept
        until :meth:`forget_liveness` (installing drops them too).
        :class:`~repro.resources.site.VDCEnvironment` installs the
        resolver over its sites; until then every host is up.
        """
        self._resolve = resolve
        self._live.clear()

    def forget_liveness(self) -> None:
        """Drop every resolved key (a site or host was added or removed)."""
        self._live.clear()

    def _liveness(self, host: str) -> Any:
        live = self._live.get(host)
        if live is None:
            live = self._live[host] = self._resolve(host)
        return live

    def is_up(self, host: str) -> bool:
        """Whether the host owning host key *host* is up."""
        return self._liveness(host).up

    # -- endpoints --------------------------------------------------------
    def register(self, addr: str) -> Store:
        """Create (or fetch) the mailbox for *addr*."""
        endpoint = self._endpoints.get(addr)
        if endpoint is None:
            site, host = split_address(addr)  # validates
            endpoint = (Store(self.env), site, host)
            self._endpoints[addr] = endpoint
        return endpoint[0]

    def mailbox(self, addr: str) -> Store:
        """Fetch a registered endpoint's mailbox."""
        try:
            return self._endpoints[addr][0]
        except KeyError:
            raise ChannelError(f"no endpoint registered at {addr!r}") from None

    @property
    def addresses(self) -> list[str]:
        return list(self._endpoints)

    # -- delivery ---------------------------------------------------------
    def send(self, src: str, dst: str, kind: str, payload=None,
             size_bytes: float = 256.0) -> Message:
        """Send a message; it arrives after the modelled delay.

        A one-destination :meth:`send_batch`, so every message takes the
        same route: one heap entry, no delivery process.  Returns the
        sent :class:`Message`.  Raises :class:`ChannelError` when the
        destination endpoint was never registered and
        :class:`ConfigurationError` for a size that is negative, NaN or
        infinite (programming errors, unlike a *down* host which is a
        simulated fault and drops silently).
        """
        return self.send_batch(src, (dst,), kind, payload, size_bytes)[0]

    def _deliver_entries(self, entries) -> None:
        """Arrival callback for one delivery run.

        *entries* is the ``(mailbox, message, dst_host)`` list one
        :meth:`send_batch` heap entry accumulated, in send order.  A
        host that went down mid-flight loses its messages (each copy
        counts as one drop).
        """
        live = self._live
        for box, msg, dst_host in entries:
            dst_live = live.get(dst_host)
            if dst_live is None:
                dst_live = self._liveness(dst_host)
            if dst_live.up:
                box.put(msg)
            else:
                self.stats.dropped += 1
                if self.obs.enabled:
                    self._m_dropped.inc(reason="mid-flight")

    def send_batch(self, src: str, dsts: Sequence[str], kind: str,
                   payload=None, size_bytes: float = 256.0,
                   payloads: Sequence | None = None,
                   sizes: Sequence[float] | None = None) -> list[Message]:
        """Send to several destinations in one coalesced operation.

        The whole batch is checked first: every destination must be
        registered (else :class:`ChannelError`) and every size finite and
        ``>= 0`` (else :class:`ConfigurationError`), so a batch that
        fails counts and schedules nothing.  Then every message, single
        sends included, is routed here, one at a time in *dsts* order:
        the happens-before hook, stats, the trace record and metrics (one
        ``obs.enabled`` guard), then the host-down, partition and
        fault-hook checks (so injector RNG draws follow send order), and
        finally the modelled delay and any injected duplicates.  Each
        message costs one endpoint lookup (site and host were resolved
        at :meth:`register`) and one :meth:`Topology.route` lookup.
        Consecutive messages sharing a delay ride **one** heap entry
        (:meth:`Environment.call_later`) and one arrival callback, so a
        fan-out inside a site (echo rounds, start signals to co-located
        controllers, WAL shipping to LAN standbys) costs O(runs) kernel
        work rather than O(messages).

        *payloads* / *sizes*, when given, are per-destination overrides
        aligned with *dsts* (the allocation push sends a different
        portion to every host).
        """
        if payloads is not None and len(payloads) != len(dsts):
            raise ConfigurationError("payloads must align with dsts")
        if sizes is not None and len(sizes) != len(dsts):
            raise ConfigurationError("sizes must align with dsts")
        endpoints = self._endpoints
        try:
            targets = [endpoints[dst] for dst in dsts]
        except KeyError as exc:
            raise ChannelError(
                f"no endpoint registered at {exc.args[0]!r}") from None
        for nbytes in (size_bytes,) if sizes is None else sizes:
            if not 0.0 <= nbytes < _INF:  # NaN-safe
                raise ConfigurationError(
                    f"message size must be finite and >= 0, got {nbytes}")
        env = self.env
        now = env._now
        stats = self.stats
        obs = self.obs
        fault_hook = self.fault_hook
        live = self._live
        route = self.topology.route
        overhead = self.per_message_overhead_s
        src_site, src_host = split_address(src)
        src_up = self._liveness(src_host).up
        hb = hooks.HB
        messages: list[Message] = []
        # the open run: consecutive messages with the same delay share it
        run_entries: list | None = None
        run_delay = -1.0
        for i in range(len(dsts)):
            dst = dsts[i]
            box, dst_site, dst_host = targets[i]
            pl = payload if payloads is None else payloads[i]
            nbytes = size_bytes if sizes is None else sizes[i]
            msg = Message(src, dst, kind, pl, nbytes, now)
            messages.append(msg)
            if hb is not None:
                hb.on_send(dst_site)
            stats.messages += 1
            stats.bytes += nbytes
            stats.by_kind[kind] += 1
            stats.bytes_by_kind[kind] += nbytes
            if obs.enabled:
                obs.trace.record(now, f"net:{kind}", src, dst=dst,
                                 bytes=nbytes)
                self._m_messages.inc(kind=kind)
                self._m_bytes.inc(nbytes, kind=kind)
            dst_live = live.get(dst_host)
            if dst_live is None:
                dst_live = self._liveness(dst_host)
            if not (dst_live.up and src_up):
                stats.dropped += 1
                if obs.enabled:
                    obs.trace.record(now, "net:dropped", src, dst=dst,
                                     kind=kind)
                    self._m_dropped.inc(reason="host-down")
                continue
            if src_host == dst_host:
                wire = 1e-5 + nbytes / 1e9  # loopback
            else:
                pair = route(src_site, dst_site)
                if pair is None:
                    # No surviving route: the partition eats the message
                    # before any injected per-message fault gets a say
                    # (no RNG draws for undeliverable traffic keeps drops
                    # deterministic).
                    stats.dropped += 1
                    stats.partition_drops += 1
                    if obs.enabled:
                        obs.trace.record(now, "net:partition-drop", src,
                                         dst=dst, kind=kind)
                        self._m_dropped.inc(reason="partitioned")
                    continue
                wire = pair[0] + nbytes / pair[1]
            action = fault_hook(msg) if fault_hook is not None else None
            if action is not None and action.drop:
                stats.dropped += 1
                stats.injected_drops += 1
                if obs.enabled:
                    obs.trace.record(now, "net:injected-drop", src,
                                     dst=dst, kind=kind)
                    self._m_dropped.inc(reason="injected")
                continue
            delay = wire + overhead
            copies = 1
            if action is not None:
                delay += action.extra_delay_s
                copies += action.duplicates
                stats.injected_duplicates += action.duplicates
            if obs.enabled:
                self._m_delay.observe(delay, kind=kind)
                # Message-delivery spans only for sends on behalf of a
                # task (the Data Manager brackets those with
                # current_parent): control-plane chatter is counted above
                # but not spanned, so the causal tree stays one
                # application's tree.
                if obs.current_parent is not None:
                    obs.spans.complete(
                        kind, "message-delivery", src, now, now + delay,
                        parent_id=obs.current_parent, dst=dst,
                        bytes=nbytes)
            if run_entries is None or delay != run_delay:
                # new run: one heap entry; the list keeps growing until
                # the entry fires (strictly later in simulated time)
                run_entries = []
                run_delay = delay
                env.call_later(delay, self._deliver_entries, run_entries)
            for _ in range(copies):
                run_entries.append((box, msg, dst_host))
        return messages
