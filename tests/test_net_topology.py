"""Tests for the WAN/LAN topology and transfer-time model."""

import pytest

from repro.net import ATM_OC3, ETHERNET_10, T1_WAN, LinkSpec, Topology
from repro.util.errors import ConfigurationError


def three_site_topology() -> Topology:
    topo = Topology()
    for s in ("syracuse", "rome", "buffalo"):
        topo.add_site(s)
    topo.connect("syracuse", "rome", ATM_OC3)
    topo.connect("rome", "buffalo", T1_WAN)
    return topo


class TestLinkSpec:
    def test_transfer_time(self):
        link = LinkSpec(latency_s=0.01, bandwidth_bps=1e6)
        assert link.transfer_time(1e6) == pytest.approx(1.01)

    def test_zero_bytes_is_latency(self):
        assert ATM_OC3.transfer_time(0) == ATM_OC3.latency_s

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkSpec(latency_s=-1, bandwidth_bps=1e6)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkSpec(latency_s=0, bandwidth_bps=0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ATM_OC3.transfer_time(-1)


class TestTopology:
    def test_sites(self):
        topo = three_site_topology()
        assert set(topo.sites) == {"syracuse", "rome", "buffalo"}

    def test_duplicate_site_rejected(self):
        topo = Topology()
        topo.add_site("a")
        with pytest.raises(ConfigurationError):
            topo.add_site("a")

    def test_self_link_rejected(self):
        topo = Topology()
        topo.add_site("a")
        with pytest.raises(ConfigurationError):
            topo.connect("a", "a")

    def test_unknown_site_link_rejected(self):
        topo = Topology()
        topo.add_site("a")
        with pytest.raises(ConfigurationError):
            topo.connect("a", "nowhere")

    def test_direct_path(self):
        topo = three_site_topology()
        assert topo.path("syracuse", "rome") == ["syracuse", "rome"]

    def test_multi_hop_path(self):
        topo = three_site_topology()
        assert topo.path("syracuse", "buffalo") == [
            "syracuse", "rome", "buffalo"]

    def test_same_site_path(self):
        topo = three_site_topology()
        assert topo.path("rome", "rome") == ["rome"]

    def test_no_path_raises(self):
        topo = Topology()
        topo.add_site("a")
        topo.add_site("b")
        with pytest.raises(ConfigurationError):
            topo.path("a", "b")

    def test_intra_site_uses_lan(self):
        topo = three_site_topology()
        t = topo.transfer_time("rome", "rome", 1000)
        assert t == pytest.approx(ETHERNET_10.transfer_time(1000))

    def test_multi_hop_latency_adds_and_bandwidth_bottlenecks(self):
        topo = three_site_topology()
        nbytes = 1e6
        t = topo.transfer_time("syracuse", "buffalo", nbytes)
        expected = (ATM_OC3.latency_s + T1_WAN.latency_s
                    + nbytes / T1_WAN.bandwidth_bps)
        assert t == pytest.approx(expected)

    def test_transfer_time_monotone_in_size(self):
        topo = three_site_topology()
        sizes = [0, 1e3, 1e6, 1e9]
        times = [topo.transfer_time("syracuse", "rome", s) for s in sizes]
        assert times == sorted(times)

    def test_latency_symmetric(self):
        topo = three_site_topology()
        assert topo.latency("syracuse", "buffalo") == pytest.approx(
            topo.latency("buffalo", "syracuse"))

    def test_nearest_sites_order(self):
        topo = three_site_topology()
        assert topo.neighbors_by_latency("rome") == ["syracuse", "buffalo"]
        assert topo.nearest_sites("rome", 1) == ["syracuse"]
        assert topo.nearest_sites("rome", 0) == []

    def test_nearest_sites_excludes_unreachable(self):
        topo = three_site_topology()
        topo.add_site("island")
        assert "island" not in topo.neighbors_by_latency("rome")

    def test_nearest_sites_negative_k(self):
        topo = three_site_topology()
        with pytest.raises(ValueError):
            topo.nearest_sites("rome", -1)

    def test_picks_lower_latency_route(self):
        topo = Topology()
        for s in ("a", "b", "c"):
            topo.add_site(s)
        # Direct slow link vs two fast hops through c.
        topo.connect("a", "b", LinkSpec(latency_s=0.5, bandwidth_bps=1e9))
        topo.connect("a", "c", LinkSpec(latency_s=0.01, bandwidth_bps=1e9))
        topo.connect("c", "b", LinkSpec(latency_s=0.01, bandwidth_bps=1e9))
        assert topo.path("a", "b") == ["a", "c", "b"]


class TestRuntimeLinkMutation:
    """Mid-run link mutations must invalidate every cached cost.

    Regression guard for the WAN-cache staleness bug: ``_pair`` caches
    ``(latency, bandwidth)`` per site pair (with negative caching of
    partitions), so ``set_link``/``set_link_up``/``remove_site`` must
    flush it or transfer costs, neighbor rankings, and reachability keep
    reporting the pre-mutation world.
    """

    def test_set_link_refreshes_cached_transfer_costs(self):
        topo = three_site_topology()
        before = topo.transfer_time("syracuse", "rome", 1e6)  # warm cache
        slower = LinkSpec(latency_s=ATM_OC3.latency_s * 10,
                          bandwidth_bps=ATM_OC3.bandwidth_bps / 10)
        topo.set_link("syracuse", "rome", slower)
        after = topo.transfer_time("syracuse", "rome", 1e6)
        assert after == pytest.approx(slower.transfer_time(1e6))
        assert after > before

    def test_set_link_up_flips_cached_reachability(self):
        topo = three_site_topology()
        assert topo.reachable("syracuse", "buffalo")  # warm cache
        topo.set_link_up("rome", "buffalo", False)
        assert not topo.reachable("syracuse", "buffalo")
        topo.set_link_up("rome", "buffalo", True)  # negative cache flushed
        assert topo.reachable("syracuse", "buffalo")

    def test_set_link_reorders_cached_neighbor_ranking(self):
        topo = three_site_topology()
        assert topo.neighbors_by_latency("rome") == ["syracuse", "buffalo"]
        topo.set_link("rome", "syracuse", LinkSpec(
            latency_s=T1_WAN.latency_s * 100, bandwidth_bps=1e6))
        assert topo.neighbors_by_latency("rome") == ["buffalo", "syracuse"]

    def test_mutating_unknown_link_refuses(self):
        topo = three_site_topology()
        with pytest.raises(ConfigurationError):
            topo.set_link("syracuse", "buffalo", T1_WAN)  # never connected
        with pytest.raises(ConfigurationError):
            topo.set_link_up("syracuse", "nowhere", False)

    def test_down_link_keeps_spec_and_restores(self):
        topo = three_site_topology()
        spec = topo.link("syracuse", "rome")
        topo.set_link_up("syracuse", "rome", False)
        assert not topo.link_is_up("syracuse", "rome")
        assert topo.link("syracuse", "rome") is spec
        topo.set_link_up("syracuse", "rome", True)
        assert topo.link_is_up("syracuse", "rome")

    def test_removed_site_is_unreachable_not_an_error(self):
        topo = three_site_topology()
        assert topo.reachable("syracuse", "buffalo")  # warm cache
        topo.remove_site("buffalo")
        assert not topo.reachable("syracuse", "buffalo")
        assert not topo.reachable("buffalo", "syracuse")
        assert topo.reachable("syracuse", "rome")
        assert not topo.has_link("rome", "buffalo")

    def test_has_link_requires_both_sites_and_an_edge(self):
        topo = three_site_topology()
        assert topo.has_link("syracuse", "rome")
        assert not topo.has_link("syracuse", "buffalo")
        assert not topo.has_link("syracuse", "atlantis")
