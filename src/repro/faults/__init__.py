"""Deterministic fault injection for the VDCE reproduction.

Declare faults with :class:`FaultPlan` (or generate a seeded random plan
via :meth:`FaultPlan.random`), then execute them against a live
federation with :class:`FaultInjector` — usually through
``VDCE.apply_fault_plan``.  See ``docs/faults.md``.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    SPEC_TYPES,
    FaultPlan,
    HostCrash,
    LinkDegrade,
    LinkDown,
    LinkFlap,
    MessageFaults,
    ServerCrash,
    SiteOutage,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "HostCrash",
    "ServerCrash",
    "SiteOutage",
    "LinkDown",
    "LinkFlap",
    "LinkDegrade",
    "MessageFaults",
    "SPEC_TYPES",
]
