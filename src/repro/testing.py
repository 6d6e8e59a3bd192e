"""Public test helpers: pre-populated federations without the runtime.

Downstream users writing tests against the scheduling/prediction layers
need the same thing this repository's own suite needs — a topology plus
per-site repositories filled exactly as a running VDCE would fill them
(hosts registered, weights calibrated by trial runs, executables
installed) — without paying for monitors and managers.  This module is
that fixture factory, kept in the library so user test suites can import
it (``from repro.testing import build_federation``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.topology import ATM_OC3, Topology
from repro.prediction.calibration import provision_site
from repro.repository.site_repository import SiteRepository
from repro.resources.groundtruth import ExecutionModel
from repro.resources.host import Host, HostSpec
from repro.tasklib import LibraryRegistry, standard_registry


@dataclass
class Federation:
    """A ready-to-schedule multi-site environment (no runtime daemons)."""

    topology: Topology
    registry: LibraryRegistry
    repositories: dict[str, SiteRepository]
    hosts: dict[str, Host] = field(default_factory=dict)  # address -> Host
    model: ExecutionModel = field(default_factory=ExecutionModel)

    def hosts_at(self, site: str) -> list[Host]:
        """Ground-truth host objects of one site."""
        return [h for h in self.hosts.values() if h.site == site]


#: heterogeneous host templates cycled across the federation
HOST_TEMPLATES = [
    dict(arch="sparc", os="solaris", cpu_factor=1.0, memory_mb=128),
    dict(arch="alpha", os="osf1", cpu_factor=0.6, memory_mb=256),
    dict(arch="x86", os="linux", cpu_factor=1.4, memory_mb=64),
    dict(arch="rs6000", os="aix", cpu_factor=0.9, memory_mb=192),
]


def build_federation(site_names=("syracuse", "rome"), hosts_per_site=3,
                     seed=0, registry=None,
                     constrain: dict[str, set[str]] | None = None,
                     templates=None) -> Federation:
    """Populate repositories exactly as a running VDCE would.

    *constrain* optionally maps task name -> set of host addresses that
    hold its executable (default: every task everywhere).  *templates*
    overrides the host hardware templates (cycled per site).
    """
    registry = registry or standard_registry()
    templates = templates or HOST_TEMPLATES
    topology = Topology()
    for name in site_names:
        topology.add_site(name)
    names = list(site_names)
    for a, b in zip(names, names[1:]):
        topology.connect(a, b, ATM_OC3)
    model = ExecutionModel(seed=seed)
    fed = Federation(topology=topology, registry=registry,
                     repositories={}, model=model)
    definitions = registry.all_tasks()
    for si, site in enumerate(site_names):
        site_hosts = []
        for hi in range(hosts_per_site):
            template = templates[(si * hosts_per_site + hi)
                                 % len(templates)]
            spec = HostSpec(name=f"h{hi}", group=f"g{hi // 2}", **template)
            host = Host(spec=spec, site=site)
            fed.hosts[host.address] = host
            site_hosts.append(host)
        repo = SiteRepository(site)
        provision_site(repo, site_hosts, definitions, model,
                       constrain=constrain)
        fed.repositories[site] = repo
    return fed
