"""The Application Scheduler: levels, host selection, site scheduling."""

from repro.scheduling.allocation import AllocationEntry, ResourceAllocationTable
from repro.scheduling.baselines import (
    BaselineScheduler,
    MinLoadScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.scheduling.heft import HeftScheduler
from repro.scheduling.host_selection import (
    HostChoice,
    HostSelectionResult,
    HostSelector,
)
from repro.scheduling.levels import ReadySet, compute_levels, priority_order
from repro.scheduling.makespan import (
    Timeline,
    evaluate_schedule,
    predicted_schedule_length,
)
from repro.scheduling.optimal import OptimalScheduler, SearchStats
from repro.scheduling.qos import (
    QoSAssessment,
    QoSRequirement,
    assess_schedule,
    require_admission,
)
from repro.scheduling.registry import (
    Scheduler,
    SchedulerContext,
    available_schedulers,
    create_scheduler,
    create_schedulers,
    register_scheduler,
)
from repro.scheduling.rescheduling import ReschedulePolicy, Rescheduler
from repro.scheduling.site_scheduler import (
    FederatedSiteScheduler,
    ScheduleReport,
    SiteScheduler,
)

__all__ = [
    "AllocationEntry",
    "BaselineScheduler",
    "FederatedSiteScheduler",
    "HeftScheduler",
    "HostChoice",
    "HostSelectionResult",
    "HostSelector",
    "MinLoadScheduler",
    "OptimalScheduler",
    "QoSAssessment",
    "QoSRequirement",
    "RandomScheduler",
    "ReadySet",
    "ReschedulePolicy",
    "Rescheduler",
    "ResourceAllocationTable",
    "RoundRobinScheduler",
    "ScheduleReport",
    "Scheduler",
    "SchedulerContext",
    "SearchStats",
    "SiteScheduler",
    "Timeline",
    "assess_schedule",
    "available_schedulers",
    "compute_levels",
    "create_scheduler",
    "create_schedulers",
    "evaluate_schedule",
    "predicted_schedule_length",
    "priority_order",
    "register_scheduler",
    "require_admission",
]
