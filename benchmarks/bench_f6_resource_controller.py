"""F6 — paper Figure 6: interactions among the Resource Controller
components.

Quantifies the figure's four monitoring interactions:

1. *Retrieving resource performance parameters* + *updating the site
   repository*: workload-update traffic under the paper's confidence-
   interval significant-change filter vs send-always vs fixed-threshold,
   and the staleness (repository error vs true load) each filter incurs.
2. *Monitoring the VDCE resources*: failure-detection latency as a
   function of the echo period.
"""

import numpy as np

from repro.faults import FaultPlan, HostCrash
from repro.net import WORKLOAD_UPDATE
from repro.obs import Observability
from repro.workloads import nynet_testbed

from _common import print_table


def run_monitoring(filter_policy: str, seed: int = 3,
                   duration_s: float = 120.0):
    vdce = nynet_testbed(seed=seed, hosts_per_site=4, with_loads=True,
                         filter_policy=filter_policy)
    vdce.start()
    # measure staleness by sampling repository error every second
    errors = []

    def sampler(env):
        while True:
            yield env.timeout(1.0)
            for host in vdce.world.all_hosts():
                rec = vdce.repositories[host.site].resource_performance.get(
                    host.address)
                errors.append(abs(rec.cpu_load - host.cpu_load))

    vdce.env.process(sampler(vdce.env))
    vdce.run(until=duration_s)
    reports = sum(gm.stats.reports_received
                  for gm in vdce.group_managers.values())
    forwarded = sum(gm.stats.updates_forwarded
                    for gm in vdce.group_managers.values())
    update_bytes = vdce.network.stats.bytes_by_kind.get(WORKLOAD_UPDATE, 0.0)
    return {
        "policy": filter_policy,
        "monitor_reports": reports,
        "updates_forwarded": forwarded,
        "traffic_reduction": reports / max(forwarded, 1),
        "update_bytes": update_bytes,
        "mean_staleness": float(np.mean(errors)),
        "p95_staleness": float(np.percentile(errors, 95)),
    }


def test_change_filter_traffic_vs_staleness(benchmark):
    """The paper's CI filter: large traffic cut, small staleness cost."""
    rows = [run_monitoring(p) for p in ("always", "threshold", "ci")]
    print_table("F6: workload-update traffic vs repository staleness",
                rows, order=["policy", "monitor_reports",
                             "updates_forwarded", "traffic_reduction",
                             "mean_staleness", "p95_staleness"])
    by = {r["policy"]: r for r in rows}
    # same measurement stream for every policy
    assert by["ci"]["monitor_reports"] == by["always"]["monitor_reports"]
    # the CI filter cuts update traffic by at least 2x vs send-always
    assert by["ci"]["updates_forwarded"] < \
        by["always"]["updates_forwarded"] / 2
    # ... at a bounded staleness cost (< 3x the always-send error, which
    # is itself nonzero due to the monitor sampling period)
    assert by["ci"]["mean_staleness"] < 3 * by["always"]["mean_staleness"] \
        + 0.2
    benchmark.pedantic(run_monitoring, args=("ci",),
                       kwargs={"duration_s": 30.0}, rounds=1, iterations=1)


def test_failure_detection_latency_vs_echo_period(benchmark):
    """Echo packets bound detection latency by ~miss_limit x period."""
    rows = []
    for period in (2.0, 5.0, 10.0):
        latencies = []
        for seed in (1, 2, 3):
            vdce = nynet_testbed(seed=seed, hosts_per_site=3,
                                 with_loads=False, echo_period_s=period,
                                 obs=Observability())
            vdce.start()
            crash_at = 7.0 + seed
            vdce.apply_fault_plan(
                FaultPlan((HostCrash("syracuse/h1", at=crash_at),)))
            vdce.run(until=crash_at + period * 4 + 5)
            downs = list(vdce.tracer.query(category="gm:host-down"))
            assert downs, f"failure undetected at period {period}"
            latencies.append(downs[0].time - crash_at)
        rows.append({"echo_period_s": period,
                     "mean_latency_s": float(np.mean(latencies)),
                     "max_latency_s": float(np.max(latencies)),
                     "bound_s": 3 * period + 2 * 1.0})
    print_table("F6: failure-detection latency vs echo period", rows)
    for r in rows:
        assert r["max_latency_s"] <= r["bound_s"]
    # latency scales with the echo period
    assert rows[-1]["mean_latency_s"] > rows[0]["mean_latency_s"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_monitoring_overhead_scales_with_hosts(benchmark):
    """Total monitoring message rate grows linearly with host count."""
    rows = []
    for hosts in (2, 4, 8):
        vdce = nynet_testbed(seed=2, hosts_per_site=hosts, with_loads=False,
                             filter_policy="always")
        vdce.start()
        vdce.run(until=60.0)
        msgs = vdce.network.stats.by_kind
        rows.append({"hosts": hosts * 2,
                     "load_reports": msgs.get("load-report", 0),
                     "echo_requests": msgs.get("echo-request", 0)})
    print_table("F6: monitoring message volume vs environment size", rows)
    assert rows[2]["load_reports"] == 4 * rows[0]["load_reports"]
    assert rows[2]["echo_requests"] == 4 * rows[0]["echo_requests"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
