"""Wide-area / site network topology.

The paper's VDCE spans geographically distributed sites (Figure 1: e.g.
the Syracuse and Rome sites on the NYNET ATM testbed) whose hosts form
groups on LANs.  This module models the WAN links between sites and a
LAN per site (:class:`~repro.net.network.Network` prices loopback
within a host itself) and computes per-transfer latency/transfer-time,
which the Site Scheduler Algorithm's ``transfer_time(S_parent, S_j)``
term consumes directly.

Links are **mutable at runtime**: :meth:`Topology.set_link` rewrites a
link's latency/bandwidth mid-run and :meth:`Topology.set_link_up`
takes a link administratively down (and back up).  The fault injector's
link faults (:mod:`repro.faults`) are the one caller that changes links
mid-run.  Every mutation clears the per-pair route cache, so cached
transfer costs can never go stale.  :meth:`Topology.route` answers
reachability and price together from that cache; when no path survives
between two sites the pair is *unreachable*: ``route`` returns
``None``, :meth:`transfer_time` raises and :meth:`reachable` returns
``False`` — this is how WAN partitions emerge from link faults rather
than being scripted.

All sizes are bytes, times are seconds, bandwidths are bytes/second.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class LinkSpec:
    """A physical network link: one-way latency plus bandwidth."""

    latency_s: float
    bandwidth_bps: float  # bytes per second

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ConfigurationError(f"negative latency: {self.latency_s}")
        if self.bandwidth_bps <= 0:
            raise ConfigurationError(
                f"bandwidth must be positive: {self.bandwidth_bps}")

    def transfer_time(self, nbytes: float) -> float:
        """Time to move *nbytes* across this link."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        return self.latency_s + nbytes / self.bandwidth_bps


#: Representative 1997-era link presets (the paper's NYNET is ATM OC-3).
ATM_OC3 = LinkSpec(latency_s=0.005, bandwidth_bps=155e6 / 8)
ETHERNET_10 = LinkSpec(latency_s=0.001, bandwidth_bps=10e6 / 8)
ETHERNET_100 = LinkSpec(latency_s=0.0005, bandwidth_bps=100e6 / 8)
T1_WAN = LinkSpec(latency_s=0.020, bandwidth_bps=1.544e6 / 8)


#: Sentinel distinguishing "pair not cached" from "cached as unreachable".
_UNSET: tuple[float, float] | None = (-1.0, -1.0)


def _edge_weight(u: str, v: str, data: dict) -> float | None:
    """Dijkstra weight: per-hop latency; ``None`` hides down links."""
    if not data.get("up", True):
        return None
    link: LinkSpec = data["link"]
    return link.latency_s


class Topology:
    """Sites connected by WAN links; each site has a LAN spec.

    The WAN is an undirected weighted graph over site names.  Transfers
    between sites follow the minimum-latency path over *up* links; the
    path's transfer time is the sum of per-hop latencies plus the size
    divided by the bottleneck (minimum) bandwidth along the path.
    Transfers inside a site use the site's LAN spec.

    Cache discipline: ``_pair_cache`` memoises :meth:`route`'s
    ``(latency sum, bottleneck bandwidth)`` pair per *ordered*
    (src, dst) — shortest-path tie-breaks are not guaranteed symmetric
    and the cache must reproduce the uncached per-call result exactly.
    A same-site pair caches its LAN spec; unreachable pairs (partitioned,
    or naming an unknown site) are negatively cached as ``None`` so a
    partition does not re-run Dijkstra on every send.  *Every* mutation
    (``add_site``/``remove_site``/``connect``/``set_link``/
    ``set_link_up``) clears the cache.
    """

    def __init__(self, lan: LinkSpec = ETHERNET_10) -> None:
        self._graph = nx.Graph()
        self._lan: dict[str, LinkSpec] = {}
        self._default_lan = lan
        self._pair_cache: dict[tuple[str, str],
                               tuple[float, float] | None] = {}

    def _invalidate(self) -> None:
        self._pair_cache.clear()

    # -- construction -----------------------------------------------------
    def add_site(self, site: str, lan: LinkSpec | None = None) -> None:
        """Register a site, optionally with its own LAN characteristics."""
        if site in self._graph:
            raise ConfigurationError(f"site {site!r} already in topology")
        self._graph.add_node(site)
        self._lan[site] = lan or self._default_lan
        self._invalidate()

    def remove_site(self, site: str) -> None:
        """Remove a departed site and every link touching it."""
        if site not in self._graph:
            raise ConfigurationError(f"unknown site {site!r}")
        self._graph.remove_node(site)
        del self._lan[site]
        self._invalidate()

    def connect(self, a: str, b: str, link: LinkSpec = ATM_OC3) -> None:
        """Add a WAN link between sites *a* and *b*."""
        self._check_pair(a, b)
        self._graph.add_edge(a, b, link=link, up=True)
        self._invalidate()

    def _check_pair(self, a: str, b: str) -> None:
        for s in (a, b):
            if s not in self._graph:
                raise ConfigurationError(f"unknown site {s!r}")
        if a == b:
            raise ConfigurationError("cannot connect a site to itself")

    def _edge(self, a: str, b: str) -> dict:
        self._check_pair(a, b)
        data = self._graph.get_edge_data(a, b)
        if data is None:
            raise ConfigurationError(f"no WAN link between {a!r} and {b!r}")
        return data

    # -- runtime mutation --------------------------------------------------
    def set_link(self, a: str, b: str, link: LinkSpec) -> None:
        """Rewrite the latency/bandwidth of an existing link mid-run.

        The link's up/down state is preserved.  Unlike :meth:`connect`
        this refuses to create a new edge — mutating a link that was
        never provisioned is almost always a test bug.
        """
        data = self._edge(a, b)
        data["link"] = link
        self._invalidate()

    def set_link_up(self, a: str, b: str, up: bool) -> None:
        """Administratively down (or restore) a WAN link.

        A down link keeps its spec but is invisible to path finding —
        if it was the only route, the site pair becomes unreachable and
        a partition has emerged.
        """
        data = self._edge(a, b)
        if bool(data.get("up", True)) != up:
            data["up"] = up
            self._invalidate()

    def link(self, a: str, b: str) -> LinkSpec:
        """The current spec of the direct link between *a* and *b*."""
        data = self._edge(a, b)
        spec: LinkSpec = data["link"]
        return spec

    def link_is_up(self, a: str, b: str) -> bool:
        """Whether the direct link between *a* and *b* is up."""
        return bool(self._edge(a, b).get("up", True))

    @property
    def sites(self) -> list[str]:
        return list(self._graph.nodes)

    def lan(self, site: str) -> LinkSpec:
        """The LAN characteristics of one site."""
        try:
            return self._lan[site]
        except KeyError:
            raise ConfigurationError(f"unknown site {site!r}") from None

    # -- queries ------------------------------------------------------------
    def path(self, src: str, dst: str) -> list[str]:
        """Minimum-latency site path from *src* to *dst* (inclusive).

        Only up links are considered; raises
        :class:`~repro.util.errors.ConfigurationError` when the pair is
        partitioned.
        """
        for s in (src, dst):
            if s not in self._graph:
                raise ConfigurationError(f"unknown site {s!r}")
        if src == dst:
            return [src]
        try:
            return nx.shortest_path(self._graph, src, dst,
                                    weight=_edge_weight)
        except nx.NetworkXNoPath:
            raise ConfigurationError(
                f"no WAN path between {src!r} and {dst!r}") from None

    def route(self, src: str, dst: str) -> tuple[float, float] | None:
        """``(latency, bandwidth)`` of the current route from *src* to
        *dst*, or ``None`` when there is none.

        A transfer of *n* bytes costs ``latency + n / bandwidth``.  A
        same-site pair answers with the site's LAN spec; a WAN pair with
        the minimum-latency path's latency sum and bottleneck bandwidth.
        A pair that is partitioned, or names a site that is not (or no
        longer) part of the topology, has no route.  One cache lookup
        once the pair has been asked for since the last mutation.
        """
        key = (src, dst)
        pair = self._pair_cache.get(key, _UNSET)
        if pair is _UNSET:
            pair = None
            if src == dst:
                lan = self._lan.get(src)
                if lan is not None:
                    pair = (lan.latency_s, lan.bandwidth_bps)
            elif src in self._graph and dst in self._graph:
                try:
                    hops = self.path(src, dst)
                except ConfigurationError:
                    pass  # partitioned
                else:
                    latency = 0.0
                    bottleneck = float("inf")
                    for u, v in zip(hops, hops[1:]):
                        link: LinkSpec = self._graph.edges[u, v]["link"]
                        latency += link.latency_s
                        bottleneck = min(bottleneck, link.bandwidth_bps)
                    pair = (latency, bottleneck)
            self._pair_cache[key] = pair
        return pair

    def reachable(self, src: str, dst: str) -> bool:
        """Whether a route currently exists from *src* to *dst*.

        A site that is not (or no longer) part of the topology — e.g.
        one that executed ``site_leave`` while a partition hid the
        announcement from some peers — is simply unreachable, not an
        error: stragglers' messages to it become deterministic
        partition drops.
        """
        return self.route(src, dst) is not None

    def has_link(self, a: str, b: str) -> bool:
        """Whether both sites exist and share a direct WAN link.

        Fault injectors use this to skip (rather than crash on) link
        mutations whose endpoint departed the federation mid-plan.
        """
        return (a in self._graph and b in self._graph
                and self._graph.has_edge(a, b))

    def latency(self, src: str, dst: str) -> float:
        """One-way latency between two sites (0-byte message)."""
        return self.transfer_time(src, dst, 0)

    def transfer_time(self, src: str, dst: str, nbytes: float) -> float:
        """Time to move *nbytes* from site *src* to site *dst*.

        This is the ``transfer_time(S_parent, S_j) * file_size`` quantity
        of the Site Scheduler Algorithm (paper Figure 4), expressed
        directly in seconds for a transfer of the given size.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        pair = self.route(src, dst)
        if pair is None:
            for s in (src, dst):
                if s not in self._lan:
                    raise ConfigurationError(f"unknown site {s!r}")
            raise ConfigurationError(
                f"no WAN path between {src!r} and {dst!r}")
        return pair[0] + nbytes / pair[1]

    def neighbors_by_latency(self, site: str) -> list[str]:
        """Every other reachable site ordered by ascending latency.

        Feeds step 2 of the Site Scheduler Algorithm: "Select k nearest
        VDCE neighbor sites".  Ties are broken by site name so the
        ordering is deterministic.
        """
        if site not in self._graph:
            raise ConfigurationError(f"unknown site {site!r}")
        others = []
        for other in self._graph.nodes:
            if other == site:
                continue
            try:
                others.append((self.latency(site, other), other))
            except ConfigurationError:
                continue  # unreachable: not a neighbour
        others.sort()
        return [name for _lat, name in others]

    def nearest_sites(self, site: str, k: int) -> list[str]:
        """The ``k`` nearest neighbour sites of *site*."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return self.neighbors_by_latency(site)[:k]
