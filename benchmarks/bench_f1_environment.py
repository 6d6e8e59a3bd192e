"""F1 — paper Figure 1: the multi-site VDCE environment.

Regenerates the figure's content as behaviour: construct N-site wide-area
environments (sites, groups, servers, daemons), measure construction
cost, and exercise one inter-site coordination round (AFG multicast +
host-selection gather) per environment size.  The paper's claim is
architectural — a site-per-region federation with server-mediated
coordination scales over a WAN; the series here shows coordination cost
growing with consulted sites while staying WAN-latency-bound.
"""

import pytest

from repro.workloads import fourier_pipeline_graph, wide_area_testbed

from _common import print_table


def build(n_sites: int, hosts_per_site: int = 3):
    vdce = wide_area_testbed(n_sites=n_sites, hosts_per_site=hosts_per_site,
                             seed=1, with_loads=False)
    vdce.start()
    return vdce


def coordination_round(vdce, k: int) -> float:
    """Simulated seconds for one message-level scheduling round."""
    graph = fourier_pipeline_graph(vdce.registry, n=1024, stages=2)
    sm = vdce.site_managers["site0"]
    t0 = vdce.now
    proc = vdce.env.process(sm.schedule_application(graph,
                                                    k_remote_sites=k))
    while not proc.triggered:
        vdce.env.step()  # event-exact: stop at the completion instant
    assert proc.ok
    return vdce.now - t0


@pytest.mark.parametrize("n_sites", [2, 4, 8])
def test_environment_construction(benchmark, n_sites):
    """Wall-clock cost of building + starting an N-site environment."""
    vdce = benchmark(build, n_sites)
    assert len(vdce.world.sites) == n_sites
    assert len(vdce.monitors) == 3 * n_sites
    benchmark.extra_info["sites"] = n_sites
    benchmark.extra_info["hosts"] = 3 * n_sites


def test_intersite_coordination_series(benchmark):
    """Simulated coordination latency vs number of consulted sites."""
    rows = []
    for n_sites, k in [(2, 1), (4, 3), (8, 7)]:
        vdce = build(n_sites)
        elapsed = coordination_round(vdce, k)
        msgs = vdce.network.stats.by_kind
        rows.append({
            "sites": n_sites, "k_remote": k,
            "coordination_s": elapsed,
            "afg_multicasts": msgs.get("afg-multicast", 0),
            "selection_replies": msgs.get("host-selection-reply", 0),
        })
    print_table("F1: inter-site coordination round", rows)
    # multicast fan-out must match k; latency grows with WAN depth
    assert [r["afg_multicasts"] for r in rows] == [1, 3, 7]
    assert rows[-1]["coordination_s"] > rows[0]["coordination_s"]
    # the round stays message-latency bound (well under a second of
    # simulated time even at 8 sites on a T1 chain)
    assert rows[-1]["coordination_s"] < 2.0

    benchmark(coordination_round, build(4), 3)


def test_site_manager_bridges_modules(benchmark):
    """Figure 1's 'site manager bridges modules to the repository': a
    full submit touches the repository through the Site Manager only."""
    vdce = build(2)

    def run_once():
        graph = fourier_pipeline_graph(vdce.registry, n=512, stages=1)
        return vdce.run_application(graph, "site0", k_remote_sites=1,
                                    max_sim_time_s=600)

    run = benchmark.pedantic(run_once, rounds=1, iterations=1)
    assert run.status == "completed"
    tp = vdce.repositories["site0"].task_performance
    assert any(tp.history(t) for t in ("fft-1d", "signal-generate"))
