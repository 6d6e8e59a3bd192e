"""Environment generators: ready-made VDCE testbeds.

:func:`nynet_testbed` models the paper's deployment — the NYNET ATM
testbed connecting Syracuse University and Rome Laboratory — with
heterogeneous mid-90s workstations per site.  :func:`wide_area_testbed`
scales to N sites for the F1/F4 sweeps.
"""

from __future__ import annotations

import zlib

from repro.core.vdce import VDCE
from repro.net.topology import ATM_OC3, ETHERNET_10, T1_WAN
from repro.resources.host import HostSpec
from repro.scheduling.rescheduling import ReschedulePolicy

#: mid-90s workstation templates, heterogeneous on purpose
WORKSTATIONS = [
    dict(arch="sparc", os="solaris", cpu_factor=1.0, memory_mb=128),
    dict(arch="sparc", os="sunos", cpu_factor=1.3, memory_mb=64),
    dict(arch="alpha", os="osf1", cpu_factor=0.6, memory_mb=256),
    dict(arch="x86", os="linux", cpu_factor=1.5, memory_mb=64),
    dict(arch="rs6000", os="aix", cpu_factor=0.9, memory_mb=192),
    dict(arch="mips", os="irix", cpu_factor=1.1, memory_mb=128),
]

#: hosts per group (one Group Manager each) in the populated testbeds
GROUP_SIZE = 4

#: background-load means of the NYNET testbed's hosts, spread evenly
#: from the first host's to the last host's
NYNET_LOAD_MEAN_RANGE = (0.1, 0.8)


def _populate_site(vdce: VDCE, site: str, n_hosts: int,
                   offset: int) -> None:
    for i in range(n_hosts):
        template = WORKSTATIONS[(offset + i) % len(WORKSTATIONS)]
        vdce.add_host(site, HostSpec(name=f"h{i}",
                                     group=f"g{i // GROUP_SIZE}",
                                     **template))


def nynet_testbed(seed: int = 0, hosts_per_site: int = 4,
                  with_loads: bool = True, **vdce_kwargs) -> VDCE:
    """The paper's two-site NYNET deployment: Syracuse <-ATM-> Rome."""
    vdce = VDCE(seed=seed, **vdce_kwargs)
    vdce.add_site("syracuse", lan=ETHERNET_10)
    vdce.add_site("rome", lan=ETHERNET_10)
    vdce.connect_sites("syracuse", "rome", ATM_OC3)
    _populate_site(vdce, "syracuse", hosts_per_site, offset=0)
    _populate_site(vdce, "rome", hosts_per_site, offset=3)
    if with_loads:
        lo, hi = NYNET_LOAD_MEAN_RANGE
        for i, host in enumerate(vdce.world.all_hosts()):
            mean = lo + (hi - lo) * (i / max(len(vdce.world.all_hosts()) - 1,
                                             1))
            vdce.attach_background_load(host.address, "random-walk",
                                        mean=mean)
    return vdce


def wide_area_testbed(n_sites: int = 4, hosts_per_site: int = 4,
                      seed: int = 0, with_loads: bool = True,
                      ring: bool = False, **vdce_kwargs) -> VDCE:
    """N sites on a WAN chain (or ring), heterogeneous hosts per site."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    vdce = VDCE(seed=seed, **vdce_kwargs)
    names = [f"site{i}" for i in range(n_sites)]
    for name in names:
        vdce.add_site(name, lan=ETHERNET_10)
    for a, b in zip(names, names[1:]):
        vdce.connect_sites(a, b, T1_WAN)
    if ring and n_sites > 2:
        vdce.connect_sites(names[-1], names[0], T1_WAN)
    for i, name in enumerate(names):
        _populate_site(vdce, name, hosts_per_site, offset=2 * i)
    if with_loads:
        for host in vdce.world.all_hosts():
            # builtin hash() is salted per process; crc32 keeps the mean
            # profile identical across runs (same idiom as repro.util.rng)
            bucket = zlib.crc32(host.address.encode("utf-8")) % 5
            vdce.attach_background_load(host.address, "random-walk",
                                        mean=0.2 + 0.6 * bucket / 5.0)
    return vdce


def quiet_testbed(seed: int = 0, hosts_per_site: int = 3,
                  **vdce_kwargs) -> VDCE:
    """Two idle heterogeneous sites: deterministic fast tests."""
    vdce_kwargs.setdefault("reschedule_policy",
                           ReschedulePolicy(load_threshold=1e9))
    return nynet_testbed(seed=seed, hosts_per_site=hosts_per_site,
                         with_loads=False, **vdce_kwargs)
