"""Monitor-update coalescing: one relay message per group per tick.

The Group Manager batches the monitor samples it forwards in one tick
into a single ``{"samples": [...]}`` repository-update message, and the
Site Manager applies (and WAL-logs) them per sample in arrival order.
The probes below read every repository and WAL byte that relay
touches; ``tests/chaos/test_digest_lock.py`` hashes them for the
monitored testbed (its ``monitor`` row), so a change to what the relay
delivers, or in which order, moves a committed digest.
"""

from __future__ import annotations

from repro.obs import Observability
from repro.workloads import nynet_testbed


def dynamic_probe(vdce) -> dict:
    """Every dynamic repository byte the coalescing path may touch."""
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


class TestCoalescingIdentity:
    def test_coalescing_actually_batches(self):
        obs = Observability()
        run_monitored(obs=obs)
        counter = obs.metrics.counter("gm_update_batches_total")
        assert counter.total() > 0
