"""A3 — parallel tasks are scheduled within one site.

Paper section 2.2.1: "For parallel tasks, the host selection algorithm is
updated to select the number of machines required within the site.  By
scheduling the parallel task execution within a site, the inter-site
communication overhead for parallel tasks is removed."

The experiment compares the realized makespan of the VDCE placement
(all participants in one site) against a deliberately-spread placement
(participants straddling the WAN), charging the spread variant the
inter-site synchronisation cost a parallel kernel would actually pay.
"""

import pytest

from repro import VDCE, ATM_OC3, HostSpec, T1_WAN
from repro.scheduling import AllocationEntry, HostSelector
from repro.workloads import linear_solver_graph

from _common import print_table


def homogeneous_two_sites(wan=T1_WAN, hosts=3):
    vdce = VDCE(seed=6)
    vdce.add_site("syracuse")
    vdce.add_site("rome")
    vdce.connect_sites("syracuse", "rome", wan)
    for i in range(hosts):
        vdce.add_host("syracuse", HostSpec(name=f"h{i}", memory_mb=256))
        vdce.add_host("rome", HostSpec(name=f"h{i}", memory_mb=256))
    vdce.start()
    return vdce


def parallel_lu_times(vdce, n=200, processors=2):
    """(within-site time, cross-site time) for the parallel LU task."""
    graph = linear_solver_graph(vdce.registry, n=n, parallel_lu=True,
                                lu_processors=processors)
    node = graph.node("lu")
    selector = HostSelector(vdce.repositories["syracuse"])
    choice = selector.select_for_task(node)
    assert len({h.split("/")[0] for h in choice.hosts}) == 1

    def kernel_time(hosts):
        base = max(vdce.model.dedicated_duration(
            node.definition, n, vdce.world.host(h), processors=processors)
            for h in hosts)
        # per-iteration synchronisation: a cubic kernel on an N x N matrix
        # exchanges boundary rows every step; charge one round-trip of the
        # slowest link between participants per N steps.
        sites = {h.split("/")[0] for h in hosts}
        if len(sites) == 1:
            sync = vdce.topology.lan("syracuse").latency_s * 2 * n
        else:
            a, b = sorted(sites)
            sync = vdce.topology.latency(a, b) * 2 * n
        return base + sync

    within = kernel_time(choice.hosts)
    spread = kernel_time(("syracuse/h0", "rome/h0"))
    return within, spread


def test_within_site_beats_cross_site_parallel(benchmark):
    rows = []
    for wan_name, wan in (("ATM OC-3", ATM_OC3), ("T1", T1_WAN)):
        vdce = homogeneous_two_sites(wan=wan)
        within, spread = parallel_lu_times(vdce)
        rows.append({"wan": wan_name, "within_site_s": within,
                     "cross_site_s": spread,
                     "penalty": spread / within})
    print_table("A3: parallel LU placement (2 processors, n=200)", rows)
    for r in rows:
        assert r["cross_site_s"] > r["within_site_s"]
    # the slower the WAN, the bigger the co-location win
    assert rows[1]["penalty"] > rows[0]["penalty"]
    benchmark.pedantic(homogeneous_two_sites, rounds=1, iterations=1)


@pytest.mark.parametrize("processors", [2, 3])
def test_selector_never_straddles_sites(benchmark, processors):
    vdce = homogeneous_two_sites(hosts=4)
    graph = linear_solver_graph(vdce.registry, n=150, parallel_lu=True,
                                lu_processors=processors)
    for site in ("syracuse", "rome"):
        choice = HostSelector(vdce.repositories[site]).select_for_task(
            graph.node("lu"))
        sites = {h.split("/")[0] for h in choice.hosts}
        assert sites == {site}
        assert len(choice.hosts) == processors
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_end_to_end_parallel_run_stays_in_one_site(benchmark):
    vdce = homogeneous_two_sites(hosts=4)
    graph = linear_solver_graph(vdce.registry, n=150, parallel_lu=True)
    run = vdce.run_application(graph, "syracuse", k_remote_sites=1,
                               max_sim_time_s=3600)
    assert run.status == "completed"
    entry = run.table.get("lu")
    assert len({h.split("/")[0] for h in entry.hosts}) == 1
    print_table("A3: end-to-end parallel run", [
        {"lu_hosts": ",".join(entry.hosts),
         "makespan_s": run.makespan,
         "residual": run.results()["verify"]["norm"]}])
    assert run.results()["verify"]["norm"] < 1e-8
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
