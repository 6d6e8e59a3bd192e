"""Resource model: hosts, sites, background loads."""

from repro.resources.host import (
    ARCHITECTURES,
    BYTE_ORDERS,
    OPERATING_SYSTEMS,
    Host,
    HostSpec,
)
from repro.resources.loads import (
    LoadModel,
    OnOffLoad,
    RandomWalkLoad,
    SpikeLoad,
    TraceLoad,
    diurnal_trace,
)
from repro.resources.site import Site, VDCEnvironment, build_environment

__all__ = [
    "ARCHITECTURES",
    "BYTE_ORDERS",
    "Host",
    "HostSpec",
    "LoadModel",
    "OPERATING_SYSTEMS",
    "OnOffLoad",
    "RandomWalkLoad",
    "Site",
    "SpikeLoad",
    "TraceLoad",
    "VDCEnvironment",
    "build_environment",
    "diurnal_trace",
]
