"""The user-accounts database, extended with multi-tenant records.

Paper section 2: "each VDCE user account is represented by a 5-tuple:
user name, password, user ID, priority, and access domain type."
Passwords are stored salted-and-hashed (the paper predates that norm, but
storing plaintext would be indefensible even in a reproduction).

Beyond the paper: accounts belong to *tenants* — organisations sharing
the federation — each carrying an admission quota (processors, memory),
a DRF weight, and a submission rate limit.  The traffic subsystem
(``repro.traffic``) reads tenant records for admission control and
dominant-resource fairness; see ``docs/traffic.md``.

Like the other repository databases, every mutation publishes a delta
event through :meth:`UserAccountsDB.subscribe` (the INV002 contract), so
incremental consumers — admission controllers caching quota views —
observe account and tenant changes without re-walking the table.
"""

from __future__ import annotations

import hashlib
import json
import secrets
from dataclasses import dataclass
from pathlib import Path

from repro.repository.delta import DeltaCallback
from repro.repository.store import Table, record_from_row
from repro.util.errors import AuthenticationError, RepositoryError

#: Access-domain types: which parts of the VDCE a user may reach.
ACCESS_DOMAINS = ("local-site", "multi-site", "administrator")

#: Tenant every account lands in unless told otherwise.
DEFAULT_TENANT = "public"


def _hash_password(password: str, salt: str) -> str:
    return hashlib.sha256(f"{salt}:{password}".encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class UserAccount:
    """The paper's 5-tuple (password held as salt+hash) plus a tenant."""

    user_name: str
    password_salt: str
    password_hash: str
    user_id: int
    priority: int
    access_domain: str
    tenant: str = DEFAULT_TENANT

    def check_password(self, password: str) -> bool:
        """Constant-shape salted-hash comparison."""
        return _hash_password(password, self.password_salt) == self.password_hash


@dataclass(frozen=True)
class TenantRecord:
    """One tenant's admission contract.

    ``quota_procs`` / ``quota_memory_mb`` cap the tenant's concurrent
    allocation across the federation (``0`` means uncapped);  ``weight``
    scales its dominant-resource fair share; ``rate_per_s`` / ``burst``
    parameterise the admission token bucket (``rate_per_s == 0`` disables
    throttling); ``max_pending`` bounds the admitted-but-waiting queue
    (``0`` means unbounded — backpressure by quota alone).
    """

    name: str
    weight: float = 1.0
    quota_procs: int = 0
    quota_memory_mb: float = 0.0
    rate_per_s: float = 0.0
    burst: int = 1
    max_pending: int = 0

    def __post_init__(self) -> None:
        # negated in-range tests, so NaN fails every check
        if not self.name:
            raise RepositoryError("tenant name may not be empty")
        if not self.weight > 0:
            raise RepositoryError("tenant weight must be positive")
        if not (self.quota_procs >= 0 and self.quota_memory_mb >= 0):
            raise RepositoryError("tenant quotas may not be negative")
        if not (self.rate_per_s >= 0 and self.burst >= 1
                and self.max_pending >= 0):
            raise RepositoryError("tenant rate/burst/max_pending out of range")


class UserAccountsDB:
    """Accounts + tenants keyed by name; authentication for the editor login.

    Delta kinds published (see :mod:`repro.repository.delta`):
    ``user`` (added), ``user-removed``, ``tenant`` (added or updated),
    ``tenant-removed`` — ``a`` is the user/tenant name, ``b`` the owning
    tenant for ``user`` events.
    """

    def __init__(self) -> None:
        self._table = Table("user-accounts")
        self._tenants = Table("tenants")
        self._next_id = 1
        self._subscribers: list[DeltaCallback] = []

    def subscribe(self, callback: DeltaCallback) -> None:
        """Register a delta callback ``cb(kind, a, b)`` (INV002 sink).

        Callbacks run synchronously in subscription order on every
        mutation — the :class:`~repro.repository.delta.DeltaTracker`
        journal therefore sees events in exactly mutation order.
        """
        self._subscribers.append(callback)

    def _notify(self, kind: str, a: str = "", b: str = "") -> None:
        for cb in self._subscribers:
            cb(kind, a, b)

    # -- accounts ---------------------------------------------------------
    def add_user(self, user_name: str, password: str, priority: int = 5,
                 access_domain: str = "local-site",
                 tenant: str = DEFAULT_TENANT) -> UserAccount:
        """Create an account (the paper's 5-tuple, plus its tenant)."""
        if not user_name:
            raise RepositoryError("user name may not be empty")
        if user_name in self._table:
            raise RepositoryError(f"user {user_name!r} already exists")
        if access_domain not in ACCESS_DOMAINS:
            raise RepositoryError(
                f"unknown access domain {access_domain!r}; "
                f"expected one of {ACCESS_DOMAINS}")
        if not 0 <= priority <= 10:
            raise RepositoryError("priority must be within [0, 10]")
        if tenant != DEFAULT_TENANT and tenant not in self._tenants:
            raise RepositoryError(f"unknown tenant {tenant!r}; "
                                  "add_tenant it first")
        salt = secrets.token_hex(8)
        account = UserAccount(
            user_name=user_name,
            password_salt=salt,
            password_hash=_hash_password(password, salt),
            user_id=self._next_id,
            priority=priority,
            access_domain=access_domain,
            tenant=tenant,
        )
        self._next_id += 1
        self._table.put(user_name, account.__dict__.copy())
        self._notify("user", user_name, tenant)
        return account

    def authenticate(self, user_name: str, password: str) -> UserAccount:
        """Return the account on success; raise AuthenticationError otherwise.

        The error message never reveals whether the user exists.
        """
        row = self._table.get_or(user_name)
        if row is None:
            raise AuthenticationError("invalid user name or password")
        account = UserAccount(**row)
        if not account.check_password(password):
            raise AuthenticationError("invalid user name or password")
        return account

    def remove_user(self, user_name: str) -> None:
        """Delete an account."""
        self._table.delete(user_name)
        self._notify("user-removed", user_name)

    def get(self, user_name: str) -> UserAccount:
        """Fetch an account without authenticating."""
        return UserAccount(**self._table.get(user_name))

    def __contains__(self, user_name: str) -> bool:
        return user_name in self._table

    def __len__(self) -> int:
        return len(self._table)

    # -- tenants ----------------------------------------------------------
    def add_tenant(self, record: TenantRecord) -> TenantRecord:
        """Create or replace a tenant's admission contract."""
        self._tenants.put(record.name, record.__dict__.copy())
        self._notify("tenant", record.name)
        return record

    def remove_tenant(self, name: str) -> None:
        """Delete a tenant record (accounts keep their tenant label)."""
        self._tenants.delete(name)
        self._notify("tenant-removed", name)

    def tenant(self, name: str) -> TenantRecord:
        """Fetch a tenant's admission contract.

        The :data:`DEFAULT_TENANT` always resolves (uncapped, weight 1)
        even when never explicitly added.
        """
        row = self._tenants.get_or(name)
        if row is not None:
            return TenantRecord(**row)
        if name == DEFAULT_TENANT:
            return TenantRecord(name=DEFAULT_TENANT)
        raise RepositoryError(f"unknown tenant {name!r}")

    def has_tenant(self, name: str) -> bool:
        return name in self._tenants

    def tenant_names(self) -> list[str]:
        """All explicitly-registered tenant names, sorted."""
        return sorted(key for key, _row in self._tenants.items())

    def users_of(self, tenant: str) -> list[str]:
        """User names belonging to *tenant*, sorted."""
        return sorted(key for key, row in self._table.items()
                      if row.get("tenant", DEFAULT_TENANT) == tenant)

    # -- federation directory transfer (repro.federation.catchup) ----------
    #
    # A rejoining or newly-joined site replicates the directory by raw
    # row, never by replaying add_user: add_user draws a fresh salt, so
    # a replayed account would hash differently and the federation-wide
    # directory digest could never converge.

    def user_row(self, user_name: str) -> dict | None:
        """The raw stored account row, or None (a copy; transfer unit)."""
        row = self._table.get_or(user_name)
        return dict(row) if row is not None else None

    def tenant_row(self, name: str) -> dict | None:
        """The raw stored tenant row, or None (a copy; transfer unit)."""
        row = self._tenants.get_or(name)
        return dict(row) if row is not None else None

    def export_rows(self) -> dict[str, dict[str, dict]]:
        """Full raw directory snapshot: ``{"users": ..., "tenants": ...}``."""
        return {
            "users": {key: dict(row) for key, row in
                      sorted(self._table.items())},
            "tenants": {key: dict(row) for key, row in
                        sorted(self._tenants.items())},
        }

    def apply_user_row(self, user_name: str, row: dict | None) -> bool:
        """Install (or, with ``None``, remove) a transferred account row.

        Idempotent: applying a row identical to the stored one is a
        no-op that publishes no delta event, so repeated catch-ups from
        several peers do not churn the journal.
        Returns whether anything changed.
        """
        if row is None:
            if user_name not in self._table:
                return False
            self._table.delete(user_name)
            self._notify("user-removed", user_name)
            return True
        if self._table.get_or(user_name) == row:
            return False
        self._table.put(user_name, dict(row))
        self._next_id = max(self._next_id, int(row["user_id"]) + 1)
        self._notify("user", user_name, row.get("tenant", DEFAULT_TENANT))
        return True

    def apply_tenant_row(self, name: str, row: dict | None) -> bool:
        """Install (or remove) a transferred tenant row; see apply_user_row."""
        if row is None:
            if name not in self._tenants:
                return False
            self._tenants.delete(name)
            self._notify("tenant-removed", name)
            return True
        if self._tenants.get_or(name) == row:
            return False
        self._tenants.put(name, dict(row))
        self._notify("tenant", name)
        return True

    def directory_digest(self) -> str:
        """SHA-256 over the canonical-JSON raw directory.

        Two sites whose digests match hold byte-identical directories —
        the convergence check the federation catch-up acceptance tests
        (and ``docs/federation.md``) are built on.
        """
        canonical = json.dumps(self.export_rows(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # persistence passthrough
    @staticmethod
    def _tenants_path(path: str | Path) -> Path:
        path = Path(path)
        return path.with_name(path.stem + "_tenants" + path.suffix)

    def save(self, path: str | Path) -> None:
        self._table.save(path)
        self._tenants.save(self._tenants_path(path))

    @classmethod
    def load(cls, path: str | Path) -> "UserAccountsDB":
        db = cls()
        db._table = Table.load(path)
        tenants_file = cls._tenants_path(path)
        if tenants_file.exists():
            db._tenants = Table.load(tenants_file)
        for key, row in db._tenants.items():
            record_from_row(TenantRecord, row, tenants_file, key)
        for key, row in db._table.items():
            record_from_row(UserAccount, row, path, key)
            # pre-tenancy persisted rows carry no tenant column
            row.setdefault("tenant", DEFAULT_TENANT)
        ids = [row["user_id"] for _k, row in db._table.items()]
        db._next_id = max(ids, default=0) + 1
        return db
