"""The pluggable scheduler registry.

Every scheduler in the repository — the paper's site scheduler, HEFT,
the naive baselines, and the branch-and-bound optimal reference — runs
under one contract: an :class:`ApplicationFlowGraph` plus a federation
view (per-site repositories + topology) in, a
:class:`~repro.scheduling.allocation.ResourceAllocationTable` out.  The
registry maps a stable name to a factory building a ready-to-run
scheduler from a :class:`SchedulerContext`, so the bake-off harness
(:mod:`repro.bakeoff`), the experiment drivers, and downstream users can
enumerate and instantiate schedulers without knowing their constructor
shapes.

Implementations self-register at import time with the
:func:`register_scheduler` decorator; :func:`_ensure_builtins` imports
the in-tree modules lazily so this module stays import-cycle-free.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.afg.graph import ApplicationFlowGraph
from repro.net.topology import Topology
from repro.obs import OBS_OFF, Observability
from repro.repository.site_repository import SiteRepository
from repro.scheduling.allocation import ResourceAllocationTable
from repro.util.errors import SchedulingError
from repro.util.rng import RngRegistry


@runtime_checkable
class Scheduler(Protocol):
    """The one contract every registered scheduler satisfies."""

    name: str

    def schedule(self, graph: ApplicationFlowGraph
                 ) -> ResourceAllocationTable:
        """Assign every task of *graph* to a site and host(s)."""
        ...  # pragma: no cover


@dataclass
class SchedulerContext:
    """Everything a factory may need to build a scheduler.

    One context describes one federation; factories read only what they
    use (the naive baselines ignore the topology, the site scheduler
    ignores the rng).  ``rng`` is a named-stream registry so randomized
    schedulers draw from their own stream (DET001: never module-level
    numpy randomness) and adding a scheduler never perturbs another's
    draws.
    """

    repositories: dict[str, SiteRepository]
    topology: Topology
    local_site: str
    k_remote_sites: int = 2
    rng: RngRegistry = field(default_factory=lambda: RngRegistry(0))
    obs: Observability = field(default_factory=lambda: OBS_OFF)
    #: degraded-mode site predicate (``repro.federation``): sites it
    #: rejects — quarantined by the membership protocol — are excluded
    #: from neighbourhood selection.  ``None`` means full membership.
    site_filter: Callable[[str], bool] | None = None


SchedulerFactory = Callable[[SchedulerContext], Scheduler]

_REGISTRY: dict[str, SchedulerFactory] = {}

#: modules whose import self-registers the in-tree schedulers
_BUILTIN_MODULES = (
    "repro.scheduling.site_scheduler",
    "repro.scheduling.heft",
    "repro.scheduling.baselines",
    "repro.scheduling.optimal",
)


def register_scheduler(name: str) -> Callable[[SchedulerFactory],
                                              SchedulerFactory]:
    """Class/function decorator registering a scheduler factory.

    >>> @register_scheduler("my-sched")         # doctest: +SKIP
    ... def _make(ctx: SchedulerContext) -> Scheduler:
    ...     return MyScheduler(ctx.repositories)
    """
    if not name or "/" in name or " " in name:
        raise SchedulingError(
            f"scheduler name {name!r} must be a non-empty slug")

    def decorator(factory: SchedulerFactory) -> SchedulerFactory:
        if name in _REGISTRY:
            raise SchedulingError(
                f"scheduler {name!r} is already registered")
        _REGISTRY[name] = factory
        return factory

    return decorator


def _ensure_builtins() -> None:
    """Import every in-tree scheduler module (idempotent)."""
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def available_schedulers() -> list[str]:
    """Sorted names of every registered scheduler."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def create_scheduler(name: str, ctx: SchedulerContext) -> Scheduler:
    """Build one registered scheduler for *ctx*."""
    _ensure_builtins()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise SchedulingError(
            f"unknown scheduler {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}") from None
    return factory(ctx)


def create_schedulers(names: Iterable[str],
                      ctx: SchedulerContext) -> dict[str, Scheduler]:
    """Build several registered schedulers against one shared context."""
    return {name: create_scheduler(name, ctx) for name in names}
