"""The admission-control daemon: reject / queue / throttle at the door.

Every arrival passes through one :class:`AdmissionController` before it
may consume federation resources.  Three outcomes:

* **reject** — the job can never run (unknown tenant, demand beyond
  federation capacity or the tenant's quota) or the tenant's pending
  queue is full (bounded backpressure: memory stays bounded no matter
  how fast an open-loop trace pours in);
* **throttle** — the tenant's token bucket is empty: the submission is
  deferred and retried on a deterministic exponential-backoff schedule
  driven by ``Environment.call_later`` (sim-time token refill, so the
  retry instant is a pure function of the seed), giving up after
  ``max_attempts``;
* **queue** — admitted into the tenant's pending queue; the dispatch
  layer (the replay engine's DRF pump) takes it from there.

All counts are per-tenant and, when an
:class:`~repro.obs.Observability` handle is enabled, mirrored into the
metrics registry (``traffic_admitted_total`` and friends).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.obs import OBS_OFF, Observability
from repro.repository.user_accounts import TenantRecord
from repro.simcore.engine import Environment
from repro.traffic.drf import DRFAllocator
from repro.traffic.trace import JobRequest

#: Reject reasons, in reporting order.
REJECT_REASONS = ("unknown-tenant", "infeasible", "queue-full",
                  "throttle-exhausted")

#: Throttle retry ladder: the first retry waits at least this long, and
#: each later one doubles it up to :data:`MAX_BACKOFF_S`.
BASE_BACKOFF_S = 0.5
MAX_BACKOFF_S = 60.0


@dataclass
class QueuedJob:
    """One admitted-but-waiting job with its priced demand vector."""

    req: JobRequest
    demand: tuple[float, float]
    queued_at_s: float


@dataclass
class TenantAdmissionStats:
    """Per-tenant admission counters."""

    arrivals: int = 0
    admitted: int = 0
    throttled: int = 0
    rejected: dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in REJECT_REASONS})
    max_queue_depth: int = 0


class AdmissionController:
    """Gate submissions against quotas, capacity, and rate limits."""

    def __init__(self, env: Environment,
                 tenants: Mapping[str, TenantRecord],
                 allocator: DRFAllocator,
                 demand_fn: Callable[[JobRequest], tuple[float, float]],
                 on_admit: Callable[[str], None],
                 feasible_fn: Callable[[JobRequest, tuple[float, float]],
                                       bool] | None = None,
                 obs: Observability = OBS_OFF,
                 max_attempts: int = 8) -> None:
        self.env = env
        self.tenants = dict(tenants)
        self.allocator = allocator
        self.demand_fn = demand_fn
        self.on_admit = on_admit
        self.feasible_fn = feasible_fn
        self.obs = obs
        self.max_attempts = max_attempts
        self.queues: dict[str, deque[QueuedJob]] = {
            name: deque() for name in sorted(self.tenants)}
        self.stats: dict[str, TenantAdmissionStats] = {
            name: TenantAdmissionStats() for name in sorted(self.tenants)}
        # token buckets: [tokens, last_refill_time]; rate 0 == unthrottled
        self._buckets: dict[str, list[float]] = {
            name: [float(rec.burst), 0.0]
            for name, rec in self.tenants.items() if rec.rate_per_s > 0}

    # -- token bucket ------------------------------------------------------
    def _take_token(self, tenant: str) -> float:
        """Consume one token; returns 0.0 on success, else seconds until
        the bucket next holds a full token (sim-time refill)."""
        bucket = self._buckets.get(tenant)
        if bucket is None:
            return 0.0
        record = self.tenants[tenant]
        now = self.env.now
        tokens = min(float(record.burst),
                     bucket[0] + (now - bucket[1]) * record.rate_per_s)
        bucket[1] = now
        if tokens >= 1.0:
            bucket[0] = tokens - 1.0
            return 0.0
        bucket[0] = tokens
        return (1.0 - tokens) / record.rate_per_s

    # -- the gate ----------------------------------------------------------
    def submit(self, req: JobRequest) -> str:
        """Admit one arrival; returns ``admitted``/``throttled``/``rejected``.

        A throttled submission is owned by the controller from here on:
        it retries itself on the backoff schedule and ends up either
        admitted or rejected (``throttle-exhausted``) without further
        involvement from the submitter.
        """
        tenant = req.tenant
        stats = self.stats.get(tenant)
        if stats is None:
            # unknown tenant: counted under a synthetic stats row so the
            # report still accounts for every arrival
            stats = self.stats.setdefault(tenant, TenantAdmissionStats())
            stats.arrivals += 1
            return self._reject(tenant, stats, "unknown-tenant")
        stats.arrivals += 1
        if self.obs.enabled:
            self.obs.metrics.counter(
                "traffic_arrivals_total",
                help="job arrivals offered to admission").inc(tenant=tenant)
        demand = self.demand_fn(req)
        if not self.allocator.feasible(tenant, demand) or (
                self.feasible_fn is not None
                and not self.feasible_fn(req, demand)):
            return self._reject(tenant, stats, "infeasible")
        return self._admit_or_throttle(req, demand, attempt=1)

    def _admit_or_throttle(self, req: JobRequest,
                           demand: tuple[float, float], attempt: int) -> str:
        tenant = req.tenant
        stats = self.stats[tenant]
        record = self.tenants[tenant]
        queue = self.queues[tenant]
        if record.max_pending and len(queue) >= record.max_pending:
            return self._reject(tenant, stats, "queue-full")
        token_wait = self._take_token(tenant)
        if token_wait > 0.0:
            if attempt >= self.max_attempts:
                return self._reject(tenant, stats, "throttle-exhausted")
            stats.throttled += 1
            if self.obs.enabled:
                self.obs.metrics.counter(
                    "traffic_throttled_total",
                    help="submissions deferred by the token bucket").inc(
                        tenant=tenant)
            backoff = min(BASE_BACKOFF_S * (2.0 ** (attempt - 1)),
                          MAX_BACKOFF_S)
            self.env.call_later(max(token_wait, backoff), self._retry,
                                (req, demand, attempt + 1))
            return "throttled"
        queue.append(QueuedJob(req=req, demand=demand,
                               queued_at_s=self.env.now))
        stats.admitted += 1
        if len(queue) > stats.max_queue_depth:
            stats.max_queue_depth = len(queue)
        if self.obs.enabled:
            self.obs.metrics.counter(
                "traffic_admitted_total",
                help="submissions admitted to the pending queue").inc(
                    tenant=tenant)
            self.obs.metrics.gauge(
                "traffic_queue_depth",
                help="pending jobs per tenant").set(len(queue),
                                                    tenant=tenant)
        self.on_admit(tenant)
        return "admitted"

    def _retry(self, deferred: tuple[JobRequest, tuple[float, float], int]
               ) -> None:
        req, demand, attempt = deferred
        self._admit_or_throttle(req, demand, attempt)

    def _reject(self, tenant: str, stats: TenantAdmissionStats,
                reason: str) -> str:
        stats.rejected[reason] = stats.rejected.get(reason, 0) + 1
        if self.obs.enabled:
            self.obs.metrics.counter(
                "traffic_rejected_total",
                help="submissions rejected at admission").inc(
                    tenant=tenant, reason=reason)
        return "rejected"

    # -- dispatch-side helpers --------------------------------------------
    def pending(self, tenant: str) -> int:
        return len(self.queues[tenant])

    def total_pending(self) -> int:
        return sum(len(q) for q in self.queues.values())
