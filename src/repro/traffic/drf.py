"""Weighted dominant-resource fairness over the federation.

The Mesos-style DRF discipline (the SNIPPETS reference): each tenant's
*dominant share* is the maximum, over resources, of its allocated
fraction of federation capacity, divided by its weight; progressive
filling always grants the next job to the eligible tenant with the
lowest weighted dominant share.  Two resources are tracked —
processors and memory — matching the demand vector a
:class:`~repro.traffic.templates.JobTemplate` charges per job
(``nproc`` processors, ``nproc * mem_per_proc_mb`` MB).

:class:`DRFAllocator` is the bookkeeping core.  The replay pump
(:class:`~repro.traffic.replay.ReplayEngine`) makes the one grant
decision with it; schedulers only place the jobs it granted, so they
stay tenant-blind.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.repository.user_accounts import TenantRecord

#: The DRF resource axes, in vector order.
RESOURCES = ("procs", "memory_mb")


class DRFAllocator:
    """Weighted DRF bookkeeping over (processors, memory).

    Capacity is federation-wide; allocations are charged per tenant and
    released on job completion.  ``pick`` implements progressive
    filling: among the offered tenants, the one with the lowest
    ``(dominant_share / weight, name)`` key — the name tie-break keeps
    every decision deterministic.
    """

    def __init__(self, capacity_procs: float, capacity_memory_mb: float,
                 tenants: Mapping[str, TenantRecord]) -> None:
        if capacity_procs <= 0 or capacity_memory_mb <= 0:
            raise ValueError("DRF capacity must be positive")
        self.capacity = (float(capacity_procs), float(capacity_memory_mb))
        self.tenants = dict(tenants)
        self._alloc: dict[str, list[float]] = {
            name: [0.0, 0.0] for name in self.tenants}
        self._used = [0.0, 0.0]

    # -- bookkeeping ------------------------------------------------------
    def allocated(self, tenant: str) -> tuple[float, float]:
        vec = self._alloc[tenant]
        return (vec[0], vec[1])

    def free(self) -> tuple[float, float]:
        return (self.capacity[0] - self._used[0],
                self.capacity[1] - self._used[1])

    def dominant_share(self, tenant: str) -> float:
        """Weighted dominant share: max_r alloc_r / cap_r, over weight."""
        vec = self._alloc[tenant]
        share = max(vec[0] / self.capacity[0], vec[1] / self.capacity[1])
        return share / self.tenants[tenant].weight

    def shares(self) -> dict[str, float]:
        """Every tenant's weighted dominant share, by name."""
        return {name: self.dominant_share(name)
                for name in sorted(self.tenants)}

    # -- admission predicates ---------------------------------------------
    def within_quota(self, tenant: str, demand: tuple[float, float]) -> bool:
        """Would granting *demand* keep *tenant* inside its quota?"""
        record = self.tenants[tenant]
        vec = self._alloc[tenant]
        if record.quota_procs and vec[0] + demand[0] > record.quota_procs:
            return False
        if record.quota_memory_mb and \
                vec[1] + demand[1] > record.quota_memory_mb:
            return False
        return True

    def fits_capacity(self, demand: tuple[float, float]) -> bool:
        free = self.free()
        return demand[0] <= free[0] + 1e-9 and demand[1] <= free[1] + 1e-9

    def can_allocate(self, tenant: str, demand: tuple[float, float]) -> bool:
        return self.fits_capacity(demand) and self.within_quota(tenant,
                                                                demand)

    def feasible(self, tenant: str, demand: tuple[float, float]) -> bool:
        """Could *demand* ever be granted (empty federation, full quota)?"""
        record = self.tenants[tenant]
        if demand[0] > self.capacity[0] or demand[1] > self.capacity[1]:
            return False
        if record.quota_procs and demand[0] > record.quota_procs:
            return False
        if record.quota_memory_mb and demand[1] > record.quota_memory_mb:
            return False
        return True

    # -- progressive filling ----------------------------------------------
    def pick(self, eligible: Iterable[str]) -> str | None:
        """The eligible tenant next in DRF order (lowest weighted share)."""
        best: str | None = None
        best_key: tuple[float, str] | None = None
        for name in eligible:
            key = (self.dominant_share(name), name)
            if best_key is None or key < best_key:
                best, best_key = name, key
        return best

    def allocate(self, tenant: str, demand: tuple[float, float]) -> None:
        vec = self._alloc[tenant]
        vec[0] += demand[0]
        vec[1] += demand[1]
        self._used[0] += demand[0]
        self._used[1] += demand[1]

    def release(self, tenant: str, demand: tuple[float, float]) -> None:
        vec = self._alloc[tenant]
        vec[0] -= demand[0]
        vec[1] -= demand[1]
        self._used[0] -= demand[0]
        self._used[1] -= demand[1]
        if vec[0] < -1e-9 or vec[1] < -1e-9:
            raise ValueError(f"tenant {tenant!r} released more than "
                             "it allocated")


def fairness_stats(shares: Mapping[str, float]) -> dict[str, float]:
    """Jain index + spread of a share vector (1.0 == perfectly fair)."""
    values = [shares[name] for name in sorted(shares)]
    n = len(values)
    total = sum(values)
    if n == 0 or total <= 0:
        return {"jain_index": 1.0, "max_share": 0.0, "min_share": 0.0}
    square_sum = sum(v * v for v in values)
    return {
        "jain_index": (total * total) / (n * square_sum),
        "max_share": max(values),
        "min_share": min(values),
    }
