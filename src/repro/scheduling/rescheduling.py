"""Dynamic rescheduling.

Paper section 2.3.1 (Application Controller): "If the current load on any
of these machines is more than a predefined threshold value, the
Application Controller terminates the task execution on the machine and
sends a task rescheduling request to the Group Manager."  Failures are
handled the same way: a task on a host that stops answering keep-alives
is rescheduled and the host excluded.

The :class:`Rescheduler` re-runs host selection for a single task against
the *current* repository view, excluding the hosts that triggered the
request.  In a started VDCE it reads the Site Managers' own selectors
(``VDCE.selectors``), so scheduling rounds and reschedules share one set
of delta-aware score views per site.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.afg.graph import TaskNode
from repro.scheduling.allocation import AllocationEntry
from repro.scheduling.host_selection import HostSelector
from repro.util.errors import ConfigurationError, NoFeasibleHostError


@dataclass(frozen=True)
class ReschedulePolicy:
    """When the Application Controller pulls the trigger."""

    #: terminate + reschedule when observed load exceeds this (``inf``
    #: never does)
    load_threshold: float = 2.0
    #: maximum times one task may be rescheduled
    max_attempts: int = 3

    def __post_init__(self) -> None:
        # NaN-safe: a NaN threshold would silently never trigger
        if not self.load_threshold >= 0:
            raise ConfigurationError(
                f"load_threshold must be >= 0, got {self.load_threshold}")
        if self.max_attempts < 0:
            raise ConfigurationError(
                f"max_attempts must be >= 0, got {self.max_attempts}")

    def should_reschedule(self, observed_load: float) -> bool:
        return observed_load > self.load_threshold


class Rescheduler:
    """Pick a replacement host for one task, excluding bad hosts, from one
    :class:`HostSelector` per site.

    *selectors* is read at every request, so a caller that rebinds a
    site's entry (a join, a departure, a failover promotion) is followed
    without a rebuild here.
    """

    def __init__(self, selectors: dict[str, HostSelector]) -> None:
        self.selectors = selectors

    def reschedule(self, node: TaskNode, current: AllocationEntry,
                   exclude_hosts: set[str] | None = None,
                   exclude_sites: set[str] | None = None,
                   ) -> AllocationEntry:
        """New allocation for *node*, avoiding *exclude_hosts*.

        Considers every site's current view; raises
        :class:`NoFeasibleHostError` when nowhere better exists.
        *exclude_sites* removes whole sites from consideration — the
        degraded-mode path passes the observer's quarantined set so a
        task lost to a partition is never re-queued back into it.  A
        parallel task is rescheduled onto a single replacement host
        (degrading to sequential execution) — re-gathering a full
        multi-host gang mid-flight is out of the prototype's scope, as
        it is in the paper's.
        """
        exclude = {*current.hosts, *(exclude_hosts or ())}
        skip_sites = exclude_sites or set()
        best_site = ""
        best: tuple[str, float] | None = None
        for site, selector in sorted(self.selectors.items()):
            if site in skip_sites:
                continue
            choice = selector.best_excluding(node, exclude)
            if choice is not None and (best is None or choice[1] < best[1]):
                best_site, best = site, choice
        if best is None:
            raise NoFeasibleHostError(
                f"no replacement host for task {node.node_id!r} "
                f"(excluded: {sorted(exclude)})")
        return AllocationEntry(node_id=node.node_id, task_name=node.task_name,
                               site=best_site, hosts=(best[0],),
                               predicted_time_s=best[1])
