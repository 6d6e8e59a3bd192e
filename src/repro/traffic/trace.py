"""Cluster-trace ingestion: the Uberun/Trinity job-tuple format.

A trace is a sequence of :class:`JobRequest` tuples — the
``(job, nproc, submit_time, duration, user)`` shape Uberun's
``SSjobgenerator`` derives from the LANL Trinity trace — optionally
extended with a tenant and an AFG template column.  Everything here is
**lazy**: :func:`load_trace` and :func:`synthetic_alibaba_trace` are
generators, so a 100k-job replay never materialises the full request
list (the replay engine keeps exactly one un-scheduled arrival in
memory at a time).

On-disk format (``#`` comments and blank lines ignored)::

    # job nproc submit_time_s duration_s user [tenant] [template]
    j000001 4 0.0 132.500 u0017 t03 fork-join

When the tenant/template columns are absent they are derived
deterministically from the user and job names (:func:`tenant_of_user`,
:func:`template_of_job`) — a crc32 key, never Python's salted ``hash``.
"""

from __future__ import annotations

import math
import zlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.repository.user_accounts import DEFAULT_TENANT


class TraceError(ValueError):
    """A malformed or non-replayable trace line."""


@dataclass(frozen=True)
class JobRequest:
    """One job arrival: the Uberun/Trinity tuple plus tenancy binding."""

    job: str
    nproc: int
    submit_time_s: float
    duration_s: float
    user: str
    tenant: str = DEFAULT_TENANT
    template: str = ""

    def as_line(self) -> str:
        """Render the on-disk trace line for this request."""
        return (f"{self.job} {self.nproc} {self.submit_time_s:.6f} "
                f"{self.duration_s:.6f} {self.user} {self.tenant} "
                f"{self.template}").rstrip()


def tenant_name(index: int) -> str:
    return f"t{index:02d}"


def user_name(index: int) -> str:
    return f"u{index:04d}"


def tenant_of_user(user: str, tenants: int) -> str:
    """Deterministic user → tenant assignment (crc32, never ``hash``)."""
    if tenants <= 0:
        return DEFAULT_TENANT
    return tenant_name(zlib.crc32(user.encode("utf-8")) % tenants)


def template_of_job(job: str, templates: tuple[str, ...]) -> str:
    """Deterministic job → AFG-template binding (crc32 keyed on the name)."""
    if not templates:
        return ""
    return templates[zlib.crc32(job.encode("utf-8")) % len(templates)]


def parse_trace_line(line: str, lineno: int = 0) -> JobRequest | None:
    """Parse one trace line; ``None`` for comments and blanks."""
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    parts = text.split()
    if len(parts) < 5 or len(parts) > 7:
        raise TraceError(
            f"trace line {lineno}: expected 5-7 columns "
            f"(job nproc submit duration user [tenant] [template]), "
            f"got {len(parts)}: {text!r}")
    try:
        nproc = int(parts[1])
        submit = float(parts[2])
        duration = float(parts[3])
    except ValueError as exc:
        raise TraceError(f"trace line {lineno}: {exc}") from None
    if not (math.isfinite(submit) and math.isfinite(duration)):
        raise TraceError(
            f"trace line {lineno}: submit and duration must be finite, "
            f"got {text!r}")
    if nproc < 1:
        raise TraceError(f"trace line {lineno}: nproc must be >= 1")
    if submit < 0 or duration <= 0:
        raise TraceError(
            f"trace line {lineno}: submit must be >= 0 and duration > 0")
    return JobRequest(
        job=parts[0], nproc=nproc, submit_time_s=submit,
        duration_s=duration, user=parts[4],
        tenant=parts[5] if len(parts) > 5 else "",
        template=parts[6] if len(parts) > 6 else "")


def load_trace(path: str | Path, tenants: int = 0,
               templates: tuple[str, ...] = ()) -> Iterator[JobRequest]:
    """Stream a trace file lazily, oldest arrival first.

    Submit times must be non-decreasing (the replay engine chains
    ``call_later`` on inter-arrival gaps); missing tenant/template
    columns are filled deterministically from *tenants* / *templates*.
    """
    path = Path(path)
    last_submit = 0.0
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            req = parse_trace_line(line, lineno)
            if req is None:
                continue
            if req.submit_time_s < last_submit:
                raise TraceError(
                    f"trace line {lineno}: submit times must be "
                    f"non-decreasing ({req.submit_time_s} < {last_submit})")
            last_submit = req.submit_time_s
            if not req.tenant:
                req = replace(req, tenant=tenant_of_user(req.user, tenants))
            if not req.template and templates:
                req = replace(req, template=template_of_job(req.job,
                                                            templates))
            yield req


def dump_trace(requests: Iterable[JobRequest], path: str | Path) -> int:
    """Write requests in the on-disk format; returns the line count."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        fh.write("# job nproc submit_time_s duration_s user tenant "
                 "template\n")
        for req in requests:
            fh.write(req.as_line() + "\n")
            count += 1
    return count


#: Alibaba-shaped defaults: heavy-tailed service times (lognormal),
#: mostly-small nproc with a fat tail, and a diurnal arrival-rate wave.
ALIBABA_MEAN_RATE_PER_S = 40.0
ALIBABA_DIURNAL_PERIOD_S = 3600.0
ALIBABA_DIURNAL_AMPLITUDE = 0.6
ALIBABA_DURATION_MEDIAN_S = 45.0
ALIBABA_DURATION_SIGMA = 1.1
ALIBABA_NPROC_P = 0.55
ALIBABA_NPROC_CAP = 32


def synthetic_alibaba_trace(rng: np.random.Generator, count: int,
                            users: int = 1000, tenants: int = 10,
                            templates: tuple[str, ...] = (),
                            mean_rate_per_s: float = ALIBABA_MEAN_RATE_PER_S,
                            start_s: float = 0.0) -> Iterator[JobRequest]:
    """Lazy Alibaba-shaped synthetic trace.

    Arrival gaps follow a non-homogeneous Poisson process thinned by a
    sinusoidal diurnal wave; durations are lognormal (median
    :data:`ALIBABA_DURATION_MEDIAN_S`, heavy tail); nproc is geometric
    with cap — the bulk of jobs are 1-4 processors, a few are wide.
    Draw *rng* from a named stream (``registry.stream("traffic-trace")``)
    for reproducibility.
    """
    if count < 0:
        raise TraceError("count must be >= 0")
    if users < 1 or tenants < 1:
        raise TraceError("users and tenants must be >= 1")
    if not mean_rate_per_s > 0:
        raise TraceError("mean_rate_per_s must be > 0")
    peak_rate = mean_rate_per_s * (1.0 + ALIBABA_DIURNAL_AMPLITUDE)
    now = start_s
    emitted = 0
    while emitted < count:
        # thinning: candidate arrivals at the peak rate, accepted with
        # probability rate(t)/peak — an exact non-homogeneous sampler
        now += float(rng.exponential(1.0 / peak_rate))
        phase = (2.0 * np.pi * (now % ALIBABA_DIURNAL_PERIOD_S)
                 / ALIBABA_DIURNAL_PERIOD_S)
        rate = mean_rate_per_s * (
            1.0 + ALIBABA_DIURNAL_AMPLITUDE * float(np.sin(phase)))
        if float(rng.random()) * peak_rate > rate:
            continue
        emitted += 1
        uidx = int(rng.integers(users))
        user = user_name(uidx)
        nproc = min(1 + int(rng.geometric(ALIBABA_NPROC_P)) - 1,
                    ALIBABA_NPROC_CAP)
        nproc = max(nproc, 1)
        duration = float(np.exp(
            np.log(ALIBABA_DURATION_MEDIAN_S)
            + ALIBABA_DURATION_SIGMA * float(rng.standard_normal())))
        job = f"j{emitted:06d}"
        yield JobRequest(
            job=job, nproc=nproc, submit_time_s=now,
            duration_s=max(duration, 0.05), user=user,
            tenant=tenant_name(uidx % tenants),
            template=template_of_job(job, templates))
