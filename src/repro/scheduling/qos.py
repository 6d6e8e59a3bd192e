"""Quality-of-Service requirements.

Paper section 2.2: "We provide an application-based scheduling framework
that provides and guarantees Quality-of-Service (QoS) of a given
application."  The prototype's notion of QoS is an application deadline
plus a per-task load ceiling: admission checks the predicted schedule
length against the deadline; at runtime the Application Controller
enforces the load ceiling via rescheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.afg.graph import ApplicationFlowGraph
from repro.net.topology import Topology
from repro.scheduling.allocation import ResourceAllocationTable
from repro.scheduling.makespan import predicted_schedule_length
from repro.util.errors import ConfigurationError, QoSViolationError


@dataclass(frozen=True)
class QoSRequirement:
    """An application's service-level requirements."""

    deadline_s: float | None = None
    max_host_load: float | None = None  # runtime rescheduling trigger

    def __post_init__(self) -> None:
        # NaN-safe: a NaN deadline would reject every application, a NaN
        # ceiling would never trigger
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ConfigurationError("deadline must be positive")
        if self.max_host_load is not None and not self.max_host_load > 0:
            raise ConfigurationError("max_host_load must be positive")


@dataclass(frozen=True)
class QoSAssessment:
    """Admission-time verdict for one schedule."""

    predicted_length_s: float
    deadline_s: float | None
    admitted: bool
    margin_s: float | None  # deadline - predicted (None without deadline)


def assess_schedule(graph: ApplicationFlowGraph,
                    table: ResourceAllocationTable,
                    topology: Topology,
                    qos: QoSRequirement) -> QoSAssessment:
    """Check the predicted schedule length against the QoS deadline."""
    predicted = predicted_schedule_length(graph, table, topology)
    if qos.deadline_s is None:
        return QoSAssessment(predicted_length_s=predicted, deadline_s=None,
                             admitted=True, margin_s=None)
    margin = qos.deadline_s - predicted
    return QoSAssessment(predicted_length_s=predicted,
                         deadline_s=qos.deadline_s,
                         admitted=margin >= 0.0, margin_s=margin)


def require_admission(graph: ApplicationFlowGraph,
                      table: ResourceAllocationTable,
                      topology: Topology,
                      qos: QoSRequirement) -> QoSAssessment:
    """As :func:`assess_schedule` but raising on rejection."""
    assessment = assess_schedule(graph, table, topology, qos)
    if not assessment.admitted:
        raise QoSViolationError(
            f"application {graph.name!r}: predicted schedule length "
            f"{assessment.predicted_length_s:.3f}s exceeds deadline "
            f"{qos.deadline_s:.3f}s")
    return assessment
