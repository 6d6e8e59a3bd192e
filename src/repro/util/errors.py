"""Exception hierarchy for the VDCE reproduction.

Every error raised by the library derives from :class:`VDCEError` so that
callers can catch library failures without catching programming errors.
The hierarchy mirrors the paper's module split: editor/graph errors,
repository errors, scheduling errors, and runtime errors.
"""

from __future__ import annotations


class VDCEError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(VDCEError):
    """An environment, site, host, or module was configured inconsistently."""


class GraphError(VDCEError):
    """Base class for Application Flow Graph construction errors."""


class CycleError(GraphError):
    """The application flow graph is not acyclic (paper: AFG must be a DAG)."""


class PortError(GraphError):
    """A link references a missing or incompatible logical port."""


class UnknownTaskError(GraphError):
    """A node references a task name absent from every task library."""


class EditorModeError(GraphError):
    """An editor operation was attempted in the wrong mode (task/link/run)."""


class RepositoryError(VDCEError):
    """Base class for site-repository database failures."""


class AuthenticationError(RepositoryError):
    """User authentication against the user-accounts database failed."""


class NotRegisteredError(RepositoryError):
    """A host, task, or account was not found in the repository."""


class SchedulingError(VDCEError):
    """The Application Scheduler could not produce a resource allocation."""


class NoFeasibleHostError(SchedulingError):
    """No host satisfies a task's constraints (executable location, memory,
    machine-type preference)."""


class QoSViolationError(SchedulingError):
    """A schedule could not satisfy the application's QoS requirements."""


class RuntimeSystemError(VDCEError):
    """Base class for VDCE Runtime System failures."""


class ChannelError(RuntimeSystemError):
    """Communication channel setup or transfer failed (Data Manager)."""


class HostDownError(RuntimeSystemError):
    """An operation targeted a host marked ``down`` in the repository."""


class ExecutionError(RuntimeSystemError):
    """A task execution failed on its assigned resource."""


class ConsoleError(RuntimeSystemError):
    """An invalid console-service transition (suspend/resume) was requested."""


class SimulationError(VDCEError):
    """The discrete-event simulation substrate was driven incorrectly."""


class DataConversionError(RuntimeSystemError):
    """Data conversion between heterogeneous machine formats failed."""
