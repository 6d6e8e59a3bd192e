"""Tenant records in the user-accounts DB and federation provisioning.

Covers the satellite contract: ``UserAccountsDB`` publishes delta
events for every account/tenant mutation (INV002), tenant records
persist alongside accounts, the site repository journals user-accounts
deltas, and :func:`provision_tenants` registers the replay population
at every site.
"""

import pytest

from repro.repository import (
    DEFAULT_TENANT,
    SiteRepository,
    TenantRecord,
    UserAccountsDB,
)
from repro.testing import build_federation
from repro.traffic import make_tenants, provision_tenants
from repro.util.errors import RepositoryError


class TestTenantRecords:
    def test_add_and_fetch(self):
        db = UserAccountsDB()
        rec = TenantRecord(name="acme", weight=2.0, quota_procs=16,
                           rate_per_s=5.0, burst=4, max_pending=100)
        db.add_tenant(rec)
        assert db.tenant("acme") == rec
        assert db.has_tenant("acme")
        assert db.tenant_names() == ["acme"]

    def test_default_tenant_always_resolves(self):
        db = UserAccountsDB()
        rec = db.tenant(DEFAULT_TENANT)
        assert rec.quota_procs == 0 and rec.weight == 1.0
        assert not db.has_tenant(DEFAULT_TENANT)
        with pytest.raises(RepositoryError, match="unknown tenant"):
            db.tenant("nope")

    def test_validation(self):
        db = UserAccountsDB()
        with pytest.raises(RepositoryError, match="weight"):
            db.add_tenant(TenantRecord(name="x", weight=0.0))
        with pytest.raises(RepositoryError, match="quotas"):
            db.add_tenant(TenantRecord(name="x", quota_procs=-1))
        with pytest.raises(RepositoryError, match="rate/burst"):
            db.add_tenant(TenantRecord(name="x", burst=0))
        with pytest.raises(RepositoryError, match="may not be empty"):
            db.add_tenant(TenantRecord(name=""))

    def test_user_requires_known_tenant(self):
        db = UserAccountsDB()
        with pytest.raises(RepositoryError, match="add_tenant"):
            db.add_user("alice", password="pw", tenant="ghost")
        db.add_tenant(TenantRecord(name="acme"))
        account = db.add_user("alice", password="pw", tenant="acme")
        assert account.tenant == "acme"
        # the default tenant needs no registration
        assert db.add_user("bob", password="pw").tenant == DEFAULT_TENANT
        assert db.users_of("acme") == ["alice"]

    def test_remove_tenant_keeps_labels(self):
        db = UserAccountsDB()
        db.add_tenant(TenantRecord(name="acme"))
        db.add_user("alice", password="pw", tenant="acme")
        db.remove_tenant("acme")
        assert not db.has_tenant("acme")
        assert db.get("alice").tenant == "acme"


class TestDeltaPublication:
    def events_of(self, db):
        events = []
        db.subscribe(lambda kind, a, b: events.append((kind, a, b)))
        return events

    def test_every_mutation_publishes(self):
        db = UserAccountsDB()
        events = self.events_of(db)
        db.add_tenant(TenantRecord(name="acme"))
        db.add_user("alice", password="pw", tenant="acme")
        db.remove_user("alice")
        db.remove_tenant("acme")
        assert events == [
            ("tenant", "acme", ""),
            ("user", "alice", "acme"),
            ("user-removed", "alice", ""),
            ("tenant-removed", "acme", ""),
        ]

    def test_reads_publish_nothing(self):
        db = UserAccountsDB()
        db.add_tenant(TenantRecord(name="acme"))
        db.add_user("alice", password="pw", tenant="acme")
        events = self.events_of(db)
        db.authenticate("alice", "pw")
        db.get("alice")
        db.tenant("acme")
        db.tenant_names()
        assert events == []

    def test_site_repository_journals_account_deltas(self):
        repo = SiteRepository("syracuse")
        cursor = repo.delta.generation
        repo.user_accounts.add_tenant(TenantRecord(name="acme"))
        repo.user_accounts.add_user("alice", password="pw",
                                    tenant="acme")
        assert repo.delta.events_since(cursor) == [
            ("tenant", "acme", ""),
            ("user", "alice", "acme"),
        ]


class TestPersistence:
    def test_tenants_round_trip(self, tmp_path):
        db = UserAccountsDB()
        db.add_tenant(TenantRecord(name="acme", weight=2.5,
                                   quota_procs=32, rate_per_s=4.0))
        db.add_user("alice", password="pw", tenant="acme")
        path = tmp_path / "accounts.json"
        db.save(path)
        assert db._tenants_path(path).exists()
        loaded = UserAccountsDB.load(path)
        assert loaded.tenant("acme") == db.tenant("acme")
        assert loaded.get("alice").tenant == "acme"
        assert loaded.authenticate("alice", "pw").user_name == "alice"

    def test_pre_tenancy_rows_backfill_default(self, tmp_path):
        db = UserAccountsDB()
        db.add_user("old", password="pw")
        path = tmp_path / "accounts.json"
        db._table.save(path)  # simulate a pre-tenancy snapshot: no
        # tenants sidecar file, rows without the column
        for _k, row in db._table.items():
            row.pop("tenant", None)
        db._table.save(path)
        loaded = UserAccountsDB.load(path)
        assert loaded.get("old").tenant == DEFAULT_TENANT


class TestProvisioning:
    def test_provision_registers_everywhere(self):
        fed = build_federation(site_names=("syracuse", "rome"), seed=1)
        tenants = make_tenants(4, weight_skew=0.5, quota_procs=16)
        created = provision_tenants(fed.repositories, tenants, users=40)
        assert created == 40
        for repo in fed.repositories.values():
            db = repo.user_accounts
            assert db.tenant_names() == sorted(tenants)
            assert db.tenant("t03").weight == pytest.approx(1.5)
            assert len(db) == 40
            # round-robin assignment: u0001 belongs to t01
            assert db.get("u0001").tenant == "t01"

    def test_user_cap_bounds_rows(self):
        fed = build_federation(site_names=("syracuse",), seed=1)
        tenants = make_tenants(2)
        created = provision_tenants(fed.repositories, tenants,
                                    users=1000, users_per_tenant_cap=8)
        assert created == 16
