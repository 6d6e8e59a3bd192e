"""Monitor-update coalescing: a transport optimisation, never a change.

The Group Manager may batch the monitor samples arriving in one tick
into a single ``{"samples": [...]}`` repository-update message
(``coalesce_updates``).  The contract mirrors the network fan-out one
(a ``send_batch`` equals the loop of sends it replaces): the Site
Manager applies coalesced samples per-sample in arrival order,
so every observable repository and WAL byte is identical with the knob
on or off — only the message count changes.
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


def run_monitored(coalesce: bool, *, failover: bool = False,
                  obs: Observability | None = None,
                  until: float = 30.0):
    vdce = nynet_testbed(seed=5, trace=False, obs=obs,
                         coalesce_updates=coalesce)
    vdce.start()
    if failover:
        vdce.enable_failover("syracuse", ["h2", "h3"])
    vdce.run(until=until)
    return vdce


class TestCoalescingIdentity:
    def test_repository_bytes_identical_on_and_off(self):
        on = run_monitored(True)
        off = run_monitored(False)
        probe = dynamic_probe(on)
        assert probe == dynamic_probe(off)
        # the run actually exercised the path: samples were applied and
        # the load windows carry per-sample history in arrival order
        applied = sum(site["updates_applied"] for site in probe.values())
        assert applied > 0
        assert any(len(rec[5]) > 1 for site in probe.values()
                   for rec in site["records"])

    def test_replication_wal_identical_on_and_off(self):
        on = run_monitored(True, failover=True)
        off = run_monitored(False, failover=True)
        on_wal, off_wal = wal_probe(on), wal_probe(off)
        assert on_wal == off_wal
        assert on_wal["syracuse"], "WAL never shipped an update"

    def test_coalescing_actually_batches(self):
        obs = Observability()
        run_monitored(True, obs=obs)
        counter = obs.metrics.counter("gm_update_batches_total")
        assert counter.total() > 0

    def test_off_never_batches(self):
        obs = Observability()
        run_monitored(False, obs=obs)
        counter = obs.metrics.counter("gm_update_batches_total")
        assert counter.total() == 0
