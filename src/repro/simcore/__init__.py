"""Discrete-event simulation substrate (clock, events, processes, stores)."""

from repro.simcore.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.simcore.store import Store, StoreGet
from repro.simcore.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Store",
    "StoreGet",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
