"""Which host keys the message path reads as up.

The network resolves each host key once, to its :class:`Host`, to its
site's server role, or to "always up", and drops every resolution when a
site or host is added or removed.  Each case below yields, after each
change it makes, a host key and whether the message path must read it
as up: both :meth:`Network.is_up` and a loopback message on that host
(checked at send and again on arrival) must agree.
"""

from __future__ import annotations

import pytest

from repro.net import ATM_OC3
from repro.resources import HostSpec, VDCEnvironment
from repro.workloads import quiet_testbed


def world() -> VDCEnvironment:
    w = VDCEnvironment(seed=0)
    w.add_site("s1")
    w.add_site("s2")
    w.connect_sites("s1", "s2", ATM_OC3)
    w.add_host("s1", HostSpec(name="h1"))
    w.add_host("s2", HostSpec(name="h1"))
    w.add_host("s2", HostSpec(name="h2"))
    return w


def reaches(net, key: str) -> bool:
    """Whether a loopback message on *key*'s host is delivered."""
    src, dst = (f"{key}/probe-a", f"{key}/probe-b") if "/" in key \
        else (key, key)
    box = net.register(dst)
    net.send(src, dst, "probe", size_bytes=0)
    net.env.run(until=net.env.now + 0.01)
    return box.try_get() is not None


def host_crash_and_recovery():
    w = world()
    host = w.host("s2/h1")
    yield w.network, "s2/h1", True
    host.up = False
    yield w.network, "s2/h1", False
    host.up = True
    yield w.network, "s2/h1", True


def address_without_slash():
    w = world()
    for host in w.site("s2").hosts.values():
        host.up = False
    w.site("s2").server_up = False
    yield w.network, "s2", True


def unknown_site_and_host():
    w = world()
    yield w.network, "s9/h1", True
    yield w.network, "s2/h9", True


def server_role_across_a_failover():
    w = world()
    site = w.site("s2")
    yield w.network, "s2/server", True
    site.server_up = False
    yield w.network, "s2/server", False
    site.server_role_host = "h2"  # a standby's promotion
    yield w.network, "s2/server", True
    site.host("h2").up = False
    yield w.network, "s2/server", False
    site.host("h2").up = True
    yield w.network, "s2/server", True


def host_removed_from_its_site():
    w = world()
    w.host("s2/h1").up = False
    yield w.network, "s2/h1", False
    w.site("s2").remove_host("h1")
    yield w.network, "s2/h1", True


def hosts_of_a_site_that_left():
    vdce = quiet_testbed(seed=2)
    vdce.start()
    vdce.enable_membership()
    vdce.run(until=5.0)
    rome = sorted(vdce.world.site("rome").hosts.values(),
                  key=lambda h: h.name)
    rome[0].up = False
    yield vdce.network, rome[0].address, False
    proc = vdce.site_leave("rome")
    while not proc.triggered and vdce.now < 120.0:
        vdce.run(until=vdce.now + 5.0)
    assert "rome" not in vdce.world.sites
    for host in rome:
        yield vdce.network, host.address, True
    yield vdce.network, "rome/server", True


def site_joining_after_registration():
    w = world()
    yield w.network, "s3/h1", True  # resolved while s3 is unknown
    w.add_site("s3")
    host = w.add_host("s3", HostSpec(name="h1"))
    host.up = False
    yield w.network, "s3/h1", False


@pytest.mark.parametrize("case", [
    host_crash_and_recovery,
    address_without_slash,
    unknown_site_and_host,
    server_role_across_a_failover,
    host_removed_from_its_site,
    hosts_of_a_site_that_left,
    site_joining_after_registration,
], ids=lambda case: case.__name__)
def test_message_path_liveness(case):
    for net, key, expected in case():
        assert net.is_up(key) is expected, key
        assert reaches(net, key) is expected, key
