"""The monitoring relay: one repository update per significant sample.

A Group Manager relays each monitor sample its change filter passes as
its own ``workload-update`` message, and the Site Manager logs and
applies it.  The probes below read every repository and WAL byte that
relay touches; ``tests/chaos/test_digest_lock.py`` hashes them for the
monitored testbed (its ``monitor`` row), so a change to what the relay
delivers, or in which order, moves a committed digest.
"""

from __future__ import annotations

from repro.net import WORKLOAD_UPDATE
from repro.obs import Observability
from repro.workloads import nynet_testbed


def dynamic_probe(vdce) -> dict:
    """Every dynamic repository byte the relay may touch."""
    probe: dict = {}
    for site_name in sorted(vdce.repositories):
        db = vdce.repositories[site_name].resource_performance
        probe[site_name] = {
            "records": [
                (rec.address, rec.cpu_load, rec.available_memory_mb,
                 rec.status, rec.last_update, tuple(rec.load_window),
                 tuple(rec.load_window_times))
                for rec in db.all_records()],
            "updates_applied":
                vdce.site_managers[site_name].updates_applied,
        }
    return probe


def wal_probe(vdce) -> dict:
    """Replication WAL contents (kind, payload) per shipping site."""
    probe = {}
    for site_name, sm in sorted(vdce.site_managers.items()):
        if sm.replication is not None:
            probe[site_name] = [(rec.kind, rec.payload)
                                for rec in sm.replication.wal]
    return probe


def run_monitored(*, failover: bool = False,
                  obs: Observability | None = None,
                  until: float = 30.0):
    vdce = nynet_testbed(seed=5, obs=obs)
    vdce.start()
    if failover:
        vdce.enable_failover("syracuse", ["h2", "h3"])
    vdce.run(until=until)
    return vdce


class TestRelay:
    def test_one_update_per_forwarded_sample(self):
        vdce = run_monitored()
        forwarded = sum(gm.stats.updates_forwarded
                        for gm in vdce.group_managers.values())
        assert forwarded > 0
        assert vdce.network.stats.by_kind[WORKLOAD_UPDATE] == forwarded
