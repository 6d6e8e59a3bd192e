"""Sites and the whole virtual environment.

A :class:`Site` owns hosts organised into groups (each with a leader
running the Group Manager) and a VDCE server machine that runs the Site
Manager and Application Scheduler (paper Figure 1).  A
:class:`VDCEnvironment` aggregates the sites, the simulated network, the
clock and the seeded RNG registry — it is the root object benchmarks and
examples construct first.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.net.network import ALWAYS_UP, Network
from repro.net.topology import LinkSpec, Topology
from repro.resources.host import Host, HostSpec
from repro.simcore.engine import Environment
from repro.util.errors import ConfigurationError, NotRegisteredError
from repro.util.rng import RngRegistry


class ServerRole:
    """The liveness of a site's server role, whichever machine holds it."""

    __slots__ = ("site",)

    def __init__(self, site: "Site") -> None:
        self.site = site

    @property
    def up(self) -> bool:
        return self.site.server_is_up()


class Site:
    """One geographic computation site: hosts, groups, a server."""

    def __init__(self, name: str) -> None:
        if "/" in name or not name:
            raise ConfigurationError(f"invalid site name {name!r}")
        self.name = name
        #: called after a host is added or removed; the
        #: :class:`VDCEnvironment` owning the site drops its network's
        #: liveness resolutions there
        self._on_change: Callable[[], None] = lambda: None
        self.hosts: dict[str, Host] = {}
        self._groups: dict[str, list[str]] = {}
        #: liveness of the dedicated VDCE server machine (ServerCrash
        #: faults flip this; see repro.faults and repro.recovery)
        self.server_up: bool = True
        #: after a failover the server *role* moves onto a standby host;
        #: None means the dedicated server machine still holds it
        self.server_role_host: str | None = None
        #: what ``site/server`` addresses' liveness follows
        self.server_role = ServerRole(self)

    # -- construction -------------------------------------------------------
    def add_host(self, spec: HostSpec) -> Host:
        """Register a machine at this site."""
        if spec.name in self.hosts:
            raise ConfigurationError(
                f"host {spec.name!r} already exists at site {self.name!r}")
        host = Host(spec=spec, site=self.name)
        self.hosts[spec.name] = host
        self._groups.setdefault(spec.group, []).append(spec.name)
        self._on_change()
        return host

    def remove_host(self, name: str) -> Host:
        """Remove a host (paper: 'whenever a resource is added or removed')."""
        host = self.host(name)
        del self.hosts[name]
        members = self._groups[host.spec.group]
        members.remove(name)
        if not members:
            del self._groups[host.spec.group]
        self._on_change()
        return host

    # -- queries --------------------------------------------------------------
    def host(self, name: str) -> Host:
        """Fetch a host by bare name."""
        try:
            return self.hosts[name]
        except KeyError:
            raise NotRegisteredError(
                f"no host {name!r} at site {self.name!r}") from None

    @property
    def groups(self) -> dict[str, list[str]]:
        return {g: list(members) for g, members in self._groups.items()}

    def group_of(self, host_name: str) -> str:
        """The group a host belongs to."""
        return self.host(host_name).spec.group

    def group_leader(self, group: str) -> str:
        """The group leader machine: deterministically the first member."""
        try:
            members = self._groups[group]
        except KeyError:
            raise NotRegisteredError(
                f"no group {group!r} at site {self.name!r}") from None
        return sorted(members)[0]

    @property
    def server_address(self) -> str:
        """Address of the VDCE server machine (Site Manager endpoint)."""
        return f"{self.name}/server"

    def server_is_up(self) -> bool:
        """Liveness of whatever machine currently holds the server role."""
        if self.server_role_host is not None:
            host = self.hosts.get(self.server_role_host)
            return host.up if host is not None else True
        return self.server_up

    def up_hosts(self) -> list[Host]:
        """Hosts currently up (ground truth, not the repository view)."""
        return [h for h in self.hosts.values() if h.up]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Site({self.name!r}, hosts={len(self.hosts)}, "
                f"groups={len(self._groups)})")


class VDCEnvironment:
    """The whole virtual distributed computing environment.

    Owns the simulation clock, the topology/network, the RNG registry and
    every site.  Construction order: create the environment, add sites,
    connect them, add hosts; daemons (monitors, managers) are attached by
    :mod:`repro.runtime` and the facade in :mod:`repro.core`.
    """

    def __init__(self, seed: int = 0, lan: LinkSpec | None = None) -> None:
        self.env = Environment()
        self.topology = Topology() if lan is None else Topology(lan=lan)
        self.network = Network(self.env, self.topology)
        self.rng = RngRegistry(seed)
        self.sites: dict[str, Site] = {}
        self.network.set_liveness(self._resolve_liveness)

    # -- construction -------------------------------------------------------
    def add_site(self, name: str, lan: LinkSpec | None = None) -> Site:
        """Create a site and register it in the topology."""
        if name in self.sites:
            raise ConfigurationError(f"site {name!r} already exists")
        self.topology.add_site(name, lan=lan)
        site = Site(name)
        site._on_change = self.network.forget_liveness
        self.sites[name] = site
        self.network.forget_liveness()
        return site

    def remove_site(self, name: str) -> Site:
        """Remove a departed site from the environment and the topology."""
        site = self.site(name)
        self.topology.remove_site(name)
        del self.sites[name]
        self.network.forget_liveness()
        return site

    def connect_sites(self, a: str, b: str, link: LinkSpec) -> None:
        """Add a WAN link between two sites."""
        self.topology.connect(a, b, link)

    def add_host(self, site_name: str, spec: HostSpec) -> Host:
        """Register a machine at one of the environment's sites."""
        return self.site(site_name).add_host(spec)

    # -- queries --------------------------------------------------------------
    def site(self, name: str) -> Site:
        """Fetch a site by name."""
        try:
            return self.sites[name]
        except KeyError:
            raise NotRegisteredError(f"no site {name!r}") from None

    def host(self, address_or_site: str, name: str | None = None) -> Host:
        """Fetch a host by ``site/name`` address or by (site, name) pair."""
        if name is None:
            site_name, _, host_name = address_or_site.partition("/")
            if not host_name:
                raise NotRegisteredError(
                    f"{address_or_site!r} is not a host address")
        else:
            site_name, host_name = address_or_site, name
        return self.site(site_name).host(host_name)

    def all_hosts(self) -> list[Host]:
        """Every host across every site."""
        return [h for s in self.sites.values() for h in s.hosts.values()]

    def _resolve_liveness(self, host_addr: str):
        """What the network reads to tell whether a host key is up.

        A ``site/host`` key resolves to its :class:`Host`, and
        ``site/server`` to the site's :class:`ServerRole` (the dedicated
        server's flag, or after a failover the standby host holding the
        role).  A key with no ``/``, or naming an unknown site or host,
        is always up.
        """
        site_name, _, host_name = host_addr.partition("/")
        site = self.sites.get(site_name)
        if not host_name or site is None:
            return ALWAYS_UP
        if host_name == "server":
            return site.server_role
        return site.hosts.get(host_name, ALWAYS_UP)

    # -- convenience ---------------------------------------------------------
    @property
    def now(self) -> float:
        return self.env.now

    def run(self, until=None):
        return self.env.run(until=until)


def build_environment(
    site_hosts: dict[str, Iterable[HostSpec]],
    wan_links: Iterable[tuple[str, str, LinkSpec]],
    seed: int = 0,
) -> VDCEnvironment:
    """Declarative constructor used by tests and workload generators."""
    vdce = VDCEnvironment(seed=seed)
    for site_name, specs in site_hosts.items():
        vdce.add_site(site_name)
        for spec in specs:
            vdce.add_host(site_name, spec)
    for a, b, link in wan_links:
        vdce.connect_sites(a, b, link)
    return vdce
