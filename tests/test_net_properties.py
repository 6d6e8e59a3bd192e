"""Property-based tests of the network substrate (hypothesis)."""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import LinkSpec, Topology
from repro.util.errors import ConfigurationError


@st.composite
def random_topology(draw):
    """A connected random topology over 2-6 sites."""
    n = draw(st.integers(2, 6))
    sites = [f"s{i}" for i in range(n)]
    topo = Topology()
    for s in sites:
        topo.add_site(s)
    # spanning chain guarantees connectivity
    for a, b in zip(sites, sites[1:]):
        latency = draw(st.floats(1e-4, 0.1))
        bw = draw(st.floats(1e5, 1e9))
        topo.connect(a, b, LinkSpec(latency_s=latency, bandwidth_bps=bw))
    # extra random links
    extra = draw(st.integers(0, n))
    for _ in range(extra):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j or topo._graph.has_edge(sites[i], sites[j]):
            continue
        topo.connect(sites[i], sites[j],
                     LinkSpec(latency_s=draw(st.floats(1e-4, 0.1)),
                              bandwidth_bps=draw(st.floats(1e5, 1e9))))
    return topo, sites


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_latency_symmetric_and_positive(data):
    topo, sites = data.draw(random_topology())
    a = data.draw(st.sampled_from(sites))
    b = data.draw(st.sampled_from(sites))
    if a == b:
        return
    lab = topo.latency(a, b)
    lba = topo.latency(b, a)
    assert lab == pytest.approx(lba)
    assert lab > 0


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), sizes=st.tuples(st.floats(0, 1e8),
                                       st.floats(0, 1e8)))
def test_transfer_time_monotone_in_size(data, sizes):
    topo, sites = data.draw(random_topology())
    a = data.draw(st.sampled_from(sites))
    b = data.draw(st.sampled_from(sites))
    lo, hi = sorted(sizes)
    assert topo.transfer_time(a, b, lo) <= topo.transfer_time(a, b, hi) + 1e-12


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_min_latency_path_beats_any_single_link(data):
    """The chosen path's latency never exceeds a direct link's latency
    when a direct link exists (shortest-path optimality witness)."""
    topo, sites = data.draw(random_topology())
    a = data.draw(st.sampled_from(sites))
    b = data.draw(st.sampled_from(sites))
    if a == b or not topo._graph.has_edge(a, b):
        return
    direct = topo._graph.edges[a, b]["link"].latency_s
    assert topo.latency(a, b) <= direct + 1e-12


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_neighbors_sorted_and_complete(data):
    topo, sites = data.draw(random_topology())
    origin = data.draw(st.sampled_from(sites))
    neighbors = topo.neighbors_by_latency(origin)
    assert set(neighbors) == set(sites) - {origin}  # chain => all reachable
    latencies = [topo.latency(origin, n) for n in neighbors]
    assert latencies == sorted(latencies)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_paths_are_valid_walks(data):
    topo, sites = data.draw(random_topology())
    a = data.draw(st.sampled_from(sites))
    b = data.draw(st.sampled_from(sites))
    path = topo.path(a, b)
    assert path[0] == a and path[-1] == b
    assert len(path) == len(set(path))  # simple path
    for u, v in zip(path, path[1:]):
        assert topo._graph.has_edge(u, v)


def test_triangle_route_prefers_two_fast_hops():
    topo = Topology()
    for s in ("a", "b", "c"):
        topo.add_site(s)
    topo.connect("a", "b", LinkSpec(latency_s=1.0, bandwidth_bps=1e9))
    topo.connect("a", "c", LinkSpec(latency_s=0.1, bandwidth_bps=1e9))
    topo.connect("c", "b", LinkSpec(latency_s=0.1, bandwidth_bps=1e9))
    assert topo.path("a", "b") == ["a", "c", "b"]
    assert topo.latency("a", "b") == pytest.approx(0.2)


def test_unknown_site_rejected_everywhere():
    topo = Topology()
    topo.add_site("a")
    for fn in (lambda: topo.latency("a", "ghost"),
               lambda: topo.path("ghost", "a"),
               lambda: topo.lan("ghost"),
               lambda: topo.neighbors_by_latency("ghost")):
        with pytest.raises(ConfigurationError):
            fn()


def uncached_twin(topo: Topology) -> Topology:
    """A freshly built Topology of *topo*'s state, with an empty route
    cache.  Deep-copying the graph keeps each site's adjacency order, so
    shortest-path tie-breaks match."""
    twin = Topology()
    twin._graph = copy.deepcopy(topo._graph)
    twin._lan = dict(topo._lan)
    return twin


def answer(fn, *args):
    """A query's value, or its error's type and message."""
    try:
        return fn(*args)
    except (ConfigurationError, ValueError) as exc:
        return type(exc), str(exc)


def link_spec(draw):
    return LinkSpec(latency_s=draw(st.floats(1e-4, 0.1)),
                    bandwidth_bps=draw(st.floats(1e5, 1e9)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_route_cache_never_stale(data):
    """The route cache never goes stale: with queries interleaved between
    mutations, every ordered pair (same-site pairs and departed sites
    included) answers ``route``, ``reachable`` and ``transfer_time``
    exactly as an uncached Topology of the same state does."""
    topo, sites = data.draw(random_topology())
    names = list(sites)  # every site ever present, departed ones too
    nbytes = data.draw(st.sampled_from([0.0, 1500.0, 1e7]))

    def check():
        queries = (("route", lambda t: t.route),
                   ("reachable", lambda t: t.reachable),
                   ("transfer_time",
                    lambda t: lambda a, b: t.transfer_time(a, b, nbytes)))
        for label, method in queries:
            twin = uncached_twin(topo)  # each pair asked once: uncached
            for a in names:
                for b in names:
                    assert answer(method(topo), a, b) == \
                        answer(method(twin), a, b), (label, a, b)

    check()
    for step in range(data.draw(st.integers(1, 10))):
        present = topo.sites
        links = sorted(tuple(sorted(e)) for e in topo._graph.edges)
        ops = ["add_site"]
        if links:
            ops += ["set_link", "set_link_up"]
        if present:
            ops.append("remove_site")
        op = data.draw(st.sampled_from(ops))
        if op == "set_link":
            a, b = data.draw(st.sampled_from(links))
            topo.set_link(a, b, link_spec(data.draw))
        elif op == "set_link_up":
            a, b = data.draw(st.sampled_from(links))
            topo.set_link_up(a, b, data.draw(st.booleans()))
        elif op == "remove_site":
            topo.remove_site(data.draw(st.sampled_from(present)))
        else:
            site = f"n{step}"
            topo.add_site(site)
            names.append(site)
            for peer in data.draw(st.lists(st.sampled_from(present),
                                           unique=True, max_size=2)
                                   if present else st.just([])):
                topo.connect(site, peer, link_spec(data.draw))
        check()
