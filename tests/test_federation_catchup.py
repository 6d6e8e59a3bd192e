"""Directory catch-up transfers: delta/snapshot modes and convergence.

The federation acceptance contract: a site that rejoins after a
partition (or joins fresh) converges its user-accounts directory to
byte-identical state — :meth:`DirectorySync.digest` — via the
DeltaTracker-cursored transfer, without ever replaying ``add_user``
(raw rows move verbatim, salts included).
"""

from __future__ import annotations

import json

from repro.faults import FaultPlan, LinkDown
from repro.federation import DIRECTORY_KINDS, DirectorySync
from repro.net.topology import ATM_OC3, ETHERNET_10
from repro.repository.site_repository import SiteRepository
from repro.repository.user_accounts import TenantRecord
from repro.resources.host import HostSpec
from repro.core.vdce import VDCE


def make_sync(site: str = "a") -> DirectorySync:
    return DirectorySync(SiteRepository(site))


class TestDirectorySyncUnits:
    def test_delta_mode_carries_only_dirtied_rows(self):
        src = make_sync()
        accounts = src.repository.user_accounts
        accounts.add_user("early", "pw")
        cursor = src.generation()
        accounts.add_tenant(TenantRecord(name="acme"))
        accounts.add_user("alice", "pw", tenant="acme")
        reply = src.build_reply(cursor)
        assert reply["mode"] == "delta"
        assert sorted(reply["users"]) == ["alice"]
        assert sorted(reply["tenants"]) == ["acme"]
        assert "early" not in reply["users"]

    def test_delta_mode_propagates_removals(self):
        src = make_sync()
        dst = make_sync("b")
        src.repository.user_accounts.add_user("doomed", "pw")
        dst.apply_reply(src.build_reply(None))
        assert "doomed" in dst.repository.user_accounts
        cursor = src.generation()
        src.repository.user_accounts.remove_user("doomed")
        reply = src.build_reply(cursor)
        assert reply["mode"] == "delta"
        assert reply["users"] == {"doomed": None}
        assert dst.apply_reply(reply) == 1
        assert "doomed" not in dst.repository.user_accounts
        assert dst.digest() == src.digest()

    def test_compacted_cursor_falls_back_to_snapshot(self):
        src = make_sync()
        src.repository.delta.max_journal = 8
        accounts = src.repository.user_accounts
        accounts.add_user("u0", "pw")
        cursor = src.generation()
        for i in range(1, 20):
            accounts.add_user(f"u{i}", "pw")
        assert src.repository.delta.events_since(cursor) is None
        reply = src.build_reply(cursor)
        assert reply["mode"] == "snapshot"
        assert len(reply["directory"]["users"]) == 20

    def test_none_cursor_means_snapshot(self):
        src = make_sync()
        src.repository.user_accounts.add_user("alice", "pw")
        reply = src.build_reply(None)
        assert reply["mode"] == "snapshot"

    def test_apply_is_idempotent_and_digests_converge(self):
        src = make_sync()
        dst = make_sync("b")
        src.repository.user_accounts.add_tenant(TenantRecord(name="t"))
        src.repository.user_accounts.add_user("alice", "pw", tenant="t")
        reply = src.build_reply(None)
        assert dst.apply_reply(reply) == 2
        generation = dst.generation()
        # a second identical transfer changes nothing — no journal churn
        assert dst.apply_reply(reply) == 0
        assert dst.generation() == generation
        assert dst.digest() == src.digest()

    def test_snapshot_merge_is_additive(self):
        src = make_sync()
        dst = make_sync("b")
        src.repository.user_accounts.add_user("from-src", "pw")
        dst.repository.user_accounts.add_user("local-only", "pw")
        dst.apply_reply(src.build_reply(None))
        accounts = dst.repository.user_accounts
        assert "from-src" in accounts and "local-only" in accounts

    def test_reply_size_scales_with_rows(self):
        src = make_sync()
        empty = DirectorySync.reply_size_bytes(src.build_reply(None))
        src.repository.user_accounts.add_user("alice", "pw")
        one = DirectorySync.reply_size_bytes(src.build_reply(None))
        assert one > empty

    def test_directory_kinds_cover_the_accounts_delta_contract(self):
        sync = make_sync()
        seen: list[str] = []
        sync.repository.user_accounts.subscribe(
            lambda kind, a, b: seen.append(kind))
        accounts = sync.repository.user_accounts
        accounts.add_tenant(TenantRecord(name="t"))
        accounts.add_user("u", "pw", tenant="t")
        accounts.remove_user("u")
        accounts.remove_tenant("t")
        assert set(seen) == DIRECTORY_KINDS


def two_site_vdce(seed: int) -> VDCE:
    """A minimal federation with no default user (deterministic rows)."""
    vdce = VDCE(seed=seed)
    vdce.add_site("alpha", lan=ETHERNET_10)
    vdce.add_site("beta", lan=ETHERNET_10)
    vdce.connect_sites("alpha", "beta", ATM_OC3)
    for site, offset in (("alpha", 0), ("beta", 1)):
        for i in range(2):
            vdce.add_host(site, HostSpec(
                name=f"h{i}", arch="sparc", os="solaris",
                cpu_factor=1.0 + 0.2 * (offset + i), memory_mb=128,
                group="g0"))
    vdce.start(add_default_user=False)
    return vdce


MUTATIONS = (
    TenantRecord(name="acme", weight=2.0, quota_procs=8),
    TenantRecord(name="globex", weight=1.0, rate_per_s=5.0, burst=4),
)


def tenant_rows(vdce: VDCE, site: str) -> str:
    rows = vdce.repositories[site].user_accounts.export_rows()["tenants"]
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))


class TestRejoinConvergence:
    def run_partitioned(self, seed: int = 7) -> VDCE:
        """Partition beta away, mutate alpha meanwhile, heal, sync."""
        vdce = two_site_vdce(seed)
        vdce.enable_membership()
        vdce.apply_fault_plan(FaultPlan([
            LinkDown("alpha", "beta", at=10.0, restore_after=30.0)]))

        def mutate(_arg):
            accounts = vdce.repositories["alpha"].user_accounts
            for record in MUTATIONS:
                accounts.add_tenant(record)
            accounts.add_user("alice", "pw", tenant="acme")

        vdce.env.call_later(20.0, mutate)
        vdce.run(until=80.0)
        return vdce

    def test_rejoiner_converges_to_full_digest_of_the_peer(self):
        vdce = self.run_partitioned()
        fed = vdce.federation
        assert fed is not None
        a = DirectorySync(vdce.repositories["alpha"])
        b = DirectorySync(vdce.repositories["beta"])
        # both sides quarantined and rejoined
        events = {e["event"] for e in fed.daemon("beta").events}
        assert {"quarantine", "rejoin", "catch-up"} <= events
        assert b.digest() == a.digest()
        assert "alice" in vdce.repositories["beta"].user_accounts

    def test_rejoin_used_delta_mode_not_snapshot(self):
        vdce = self.run_partitioned()
        catchups = [e for e in vdce.federation.daemon("beta").events
                    if e["event"] == "catch-up"]
        assert catchups and all(e["mode"] == "delta" for e in catchups)

    def test_matches_never_partitioned_control_run(self):
        """The acceptance digest check against an unpartitioned control.

        The control run applies the same mutations with the federation
        healthy; directory content is compared on the deterministic
        tenant rows (account rows carry per-process random salts, so
        cross-run comparison uses within-run digest equality above).
        """
        partitioned = self.run_partitioned()
        control = two_site_vdce(seed=7)
        control.enable_membership()
        accounts = control.repositories["alpha"].user_accounts
        for record in MUTATIONS:
            accounts.add_tenant(record)
        accounts.add_user("alice", "pw", tenant="acme")
        # healthy-federation propagation: beta pulls a snapshot
        control.federation.daemon("beta").request_snapshot("alpha")
        control.run(until=80.0)
        assert tenant_rows(partitioned, "beta") == \
            tenant_rows(control, "beta") == tenant_rows(control, "alpha")

    def test_fresh_joiner_bootstraps_via_snapshot(self):
        vdce = two_site_vdce(seed=11)
        vdce.enable_membership()
        accounts = vdce.repositories["alpha"].user_accounts
        accounts.add_tenant(TenantRecord(name="acme"))
        accounts.add_user("alice", "pw", tenant="acme")
        vdce.run(until=5.0)
        vdce.site_join(
            "gamma",
            hosts=[HostSpec(name="h0", arch="x86", os="linux",
                            cpu_factor=1.2, memory_mb=64, group="g0")],
            links={"alpha": ATM_OC3}, sponsor="alpha")
        vdce.run(until=20.0)
        gamma = DirectorySync(vdce.repositories["gamma"])
        assert gamma.digest() == DirectorySync(
            vdce.repositories["alpha"]).digest()
        catchups = [e for e in vdce.federation.daemon("gamma").events
                    if e["event"] == "catch-up"]
        assert catchups and catchups[0]["mode"] == "snapshot"
