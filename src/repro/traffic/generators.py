"""Deterministic arrival generators: open-loop and closed-loop.

Both generators are **lazy iterators** of
:class:`~repro.traffic.trace.JobRequest` drawing every random variate
from a single ``numpy.random.Generator`` the caller obtains from a
named :class:`~repro.util.rng.RngRegistry` stream (the DET001
contract) — same seed, same byte-identical arrival sequence.

*Open-loop* (:class:`OpenLoopGenerator`): a rate-parameterised Poisson
process.  Arrivals do not react to the system — the classic
trace-replay regime; the offered load is exactly ``rate_per_s``
regardless of how the federation keeps up.

*Closed-loop* (:class:`ClosedLoopGenerator`): a fixed user population
with think time.  Each simulated user submits one job, "waits" for its
(expected) service, thinks for an exponential pause, and submits again —
so each user has **at most one outstanding job** and the offered load
self-regulates with the population size (the interactive regime).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.traffic.trace import (
    JobRequest,
    TraceError,
    template_of_job,
    tenant_name,
    user_name,
)


@dataclass(frozen=True)
class WorkloadShape:
    """Per-job size distribution shared by both generators.

    Durations are lognormal (``median_s`` scale, ``sigma`` shape);
    processor counts are geometric with success probability ``nproc_p``
    capped at ``nproc_cap`` — small jobs dominate, wide jobs are rare.
    """

    duration_median_s: float = 30.0
    duration_sigma: float = 0.8
    nproc_p: float = 0.6
    nproc_cap: int = 16
    min_duration_s: float = 0.05

    def draw(self, rng: np.random.Generator) -> tuple[int, float]:
        """One (nproc, duration_s) sample."""
        nproc = min(int(rng.geometric(self.nproc_p)), self.nproc_cap)
        duration = float(np.exp(
            np.log(self.duration_median_s)
            + self.duration_sigma * float(rng.standard_normal())))
        return max(nproc, 1), max(duration, self.min_duration_s)


def _check_population(users: int, tenants: int, count: int) -> None:
    if users < 1:
        raise TraceError("users must be >= 1")
    if tenants < 1 or tenants > users:
        raise TraceError("tenants must be in [1, users]")
    if count < 0:
        raise TraceError("count must be >= 0")


class OpenLoopGenerator:
    """Rate-parameterised Poisson arrivals from a simulated population.

    Users are drawn uniformly per arrival; user ``i`` belongs to tenant
    ``i % tenants``, so tenants receive near-equal offered load (the
    DRF fairness tests rely on that symmetry).
    """

    def __init__(self, rng: np.random.Generator, count: int,
                 rate_per_s: float, users: int = 1000, tenants: int = 10,
                 templates: tuple[str, ...] = (),
                 shape: WorkloadShape | None = None,
                 start_s: float = 0.0) -> None:
        if not rate_per_s > 0:
            raise TraceError("rate_per_s must be > 0")
        _check_population(users, tenants, count)
        self._rng = rng
        self.count = count
        self.rate_per_s = rate_per_s
        self.users = users
        self.tenants = tenants
        self.templates = templates
        self.shape = shape or WorkloadShape()
        self.start_s = start_s

    def __iter__(self) -> Iterator[JobRequest]:
        rng = self._rng
        now = self.start_s
        for i in range(self.count):
            now += float(rng.exponential(1.0 / self.rate_per_s))
            uidx = int(rng.integers(self.users))
            nproc, duration = self.shape.draw(rng)
            job = f"j{i + 1:06d}"
            yield JobRequest(
                job=job, nproc=nproc, submit_time_s=now,
                duration_s=duration, user=user_name(uidx),
                tenant=tenant_name(uidx % self.tenants),
                template=template_of_job(job, self.templates))


class ClosedLoopGenerator:
    """Fixed user population with exponential think time.

    Each user cycles submit → service (the drawn duration) → think →
    submit.  The next emission always belongs to the user with the
    earliest ready time (a heap, ties broken by user index), so the
    sequence is a pure function of the rng stream.  Invariant: for any
    user, ``submit[k+1] >= submit[k] + duration[k]`` — at most one
    outstanding job per user.
    """

    def __init__(self, rng: np.random.Generator, count: int,
                 users: int = 100, tenants: int = 10,
                 think_time_s: float = 10.0,
                 templates: tuple[str, ...] = (),
                 shape: WorkloadShape | None = None,
                 start_s: float = 0.0) -> None:
        if not think_time_s >= 0:
            raise TraceError("think_time_s must be >= 0")
        _check_population(users, tenants, count)
        self._rng = rng
        self.count = count
        self.users = users
        self.tenants = tenants
        self.think_time_s = think_time_s
        self.templates = templates
        self.shape = shape or WorkloadShape()
        self.start_s = start_s

    def _think(self, rng: np.random.Generator) -> float:
        if self.think_time_s == 0:
            return 0.0
        return float(rng.exponential(self.think_time_s))

    def __iter__(self) -> Iterator[JobRequest]:
        rng = self._rng
        # initial think pause staggers the population deterministically
        # (user order, then heap order by ready time)
        ready: list[tuple[float, int]] = [
            (self.start_s + self._think(rng), uidx)
            for uidx in range(self.users)]
        heapq.heapify(ready)
        for i in range(self.count):
            now, uidx = heapq.heappop(ready)
            nproc, duration = self.shape.draw(rng)
            job = f"j{i + 1:06d}"
            yield JobRequest(
                job=job, nproc=nproc, submit_time_s=now,
                duration_s=duration, user=user_name(uidx),
                tenant=tenant_name(uidx % self.tenants),
                template=template_of_job(job, self.templates))
            heapq.heappush(ready, (now + duration + self._think(rng), uidx))
