"""``repro.traffic`` — trace-driven traffic: ingestion, generators,
multi-tenant admission, and DRF-fair replay.

The front door for realistic load (ROADMAP item 1): ingest
Uberun/Trinity-style job traces or generate them (synthetic
Alibaba-shaped, open-loop Poisson, closed-loop user population), stream
100k+ arrivals lazily into the DES, and dispatch them across the
federation under real multi-tenancy — per-tenant quotas and token
buckets at admission (:mod:`repro.traffic.admission`), weighted
dominant-resource fairness at dispatch (:mod:`repro.traffic.drf`).
``repro replay`` is the CLI; :mod:`repro.bakeoff.replay` scores
registered schedulers under the same sustained load.
"""

from __future__ import annotations

from repro.traffic.admission import (
    REJECT_REASONS,
    AdmissionController,
    QueuedJob,
    TenantAdmissionStats,
)
from repro.traffic.drf import (
    RESOURCES,
    DRFAllocator,
    fairness_stats,
)
from repro.traffic.generators import (
    ClosedLoopGenerator,
    OpenLoopGenerator,
    WorkloadShape,
)
from repro.traffic.replay import (
    GENERATORS,
    CapacityBackend,
    ReplayConfig,
    ReplayEngine,
    ReplayReport,
    build_arrivals,
    check_report,
    run_replay,
)
from repro.traffic.templates import (
    TEMPLATE_NAMES,
    TEMPLATES,
    JobTemplate,
    build_graph,
    template_by_name,
)
from repro.traffic.tenancy import make_tenants, provision_tenants
from repro.traffic.trace import (
    JobRequest,
    TraceError,
    dump_trace,
    load_trace,
    parse_trace_line,
    synthetic_alibaba_trace,
    template_of_job,
    tenant_name,
    tenant_of_user,
    user_name,
)

__all__ = [
    "AdmissionController",
    "CapacityBackend",
    "ClosedLoopGenerator",
    "DRFAllocator",
    "GENERATORS",
    "JobRequest",
    "JobTemplate",
    "OpenLoopGenerator",
    "QueuedJob",
    "REJECT_REASONS",
    "RESOURCES",
    "ReplayConfig",
    "ReplayEngine",
    "ReplayReport",
    "TEMPLATES",
    "TEMPLATE_NAMES",
    "TenantAdmissionStats",
    "TraceError",
    "WorkloadShape",
    "build_arrivals",
    "build_graph",
    "check_report",
    "dump_trace",
    "fairness_stats",
    "load_trace",
    "make_tenants",
    "parse_trace_line",
    "provision_tenants",
    "run_replay",
    "synthetic_alibaba_trace",
    "template_by_name",
    "template_of_job",
    "tenant_name",
    "tenant_of_user",
    "user_name",
]
