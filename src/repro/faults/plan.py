"""Declarative fault plans.

The paper's Application Scheduler and Resource Controller exist for a
wide-area federation where machines crash and links degrade mid-run
(section 2.3.1: tasks are rescheduled on "machine failure or load
change").  A :class:`FaultPlan` makes those failures first-class: it is a
declarative, serialisable schedule of faults — host, site and server
crashes, WAN link faults and probabilistic per-message faults — that a
:class:`~repro.faults.injector.FaultInjector` executes on the simulated
clock.

Determinism contract: a plan is either written out explicitly or
generated by :meth:`FaultPlan.random` from a seeded generator, and the
injector draws per-message randomness from a named
:mod:`repro.util.rng` stream.  One root seed therefore reproduces the
exact fault sequence, byte for byte (see ``docs/faults.md``).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.net.message import Message
from repro.util.errors import ConfigurationError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _check_prob(value: float, name: str) -> None:
    _require(0.0 <= value <= 1.0, f"{name} must be in [0, 1], got {value}")


#: what a spec field must hold, by its annotated type
_FIELD_TYPES = {"float": "a finite number", "int": "an integer",
                "str": "a non-empty string",
                "tuple[str, ...]": "a list of strings"}


def _check_fields(spec: Any) -> None:
    """Each field of *spec* holds its annotated type (a bool is no
    number); ``None`` only where the annotation allows it."""
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        name, _, optional = f.type.partition(" | ")
        if value is None and optional:
            continue
        if name == "float":
            ok = isinstance(value, numbers.Real) and math.isfinite(value)
        elif name == "int":
            ok = isinstance(value, numbers.Integral)
        elif name == "str":
            ok = isinstance(value, str) and (value != "" or bool(optional))
        else:
            ok = isinstance(value, tuple) and \
                all(isinstance(item, str) for item in value)
        _require(ok and not isinstance(value, bool),
                 f"{f.name} must be {_FIELD_TYPES[name]}, got {value!r}")


@dataclass(frozen=True)
class HostCrash:
    """Crash one host at time *at*; optionally recover *recover_after*
    seconds later.  While down the host drops all traffic in both
    directions and stops answering echo packets — the paper's failure
    model, detectable only through silence."""

    kind: ClassVar[str] = "host-crash"

    host: str                        # "site/host" address
    at: float
    recover_after: float | None = None

    def validate(self) -> None:
        _check_fields(self)
        _require(self.at >= 0, f"fault time must be >= 0, got {self.at}")
        _require(self.recover_after is None or self.recover_after > 0,
                 "recover_after must be positive when given")


@dataclass(frozen=True)
class SiteOutage:
    """Crash every host of one site at *at* (power/backbone loss);
    optionally recover them all *recover_after* seconds later."""

    kind: ClassVar[str] = "site-outage"

    site: str
    at: float
    recover_after: float | None = None

    def validate(self) -> None:
        _check_fields(self)
        _require(self.at >= 0, f"fault time must be >= 0, got {self.at}")
        _require(self.recover_after is None or self.recover_after > 0,
                 "recover_after must be positive when given")


@dataclass(frozen=True)
class ServerCrash:
    """Crash one site's dedicated VDCE server machine at *at*; optionally
    recover it *recover_after* seconds later.  While down the site's
    ``site/server/...`` endpoints drop all traffic: the Site Manager stops
    answering, in-flight acks and completion reports are lost, and — when
    the recovery subsystem is enabled — the standby replicas stop seeing
    heartbeats and promote (see ``docs/recovery.md``).  If the server
    recovers after a failover already moved the role onto a standby, the
    old machine does NOT reclaim the role (no split-brain)."""

    kind: ClassVar[str] = "server-crash"

    site: str
    at: float
    recover_after: float | None = None

    def validate(self) -> None:
        _check_fields(self)
        _require(self.at >= 0, f"fault time must be >= 0, got {self.at}")
        _require(self.recover_after is None or self.recover_after > 0,
                 "recover_after must be positive when given")


@dataclass(frozen=True)
class LinkDown:
    """Take the physical WAN link between two sites down at *at*;
    optionally restore it *restore_after* seconds later.

    This mutates the **topology**: while the link is down, traffic
    reroutes over surviving links — and when no route survives, the
    sites are genuinely partitioned (the network drops with reason
    ``partitioned``).  Partitions therefore *emerge* from link state
    rather than being scripted per site pair."""

    kind: ClassVar[str] = "link-down"

    site_a: str
    site_b: str
    at: float
    restore_after: float | None = None

    def validate(self) -> None:
        _check_fields(self)
        _require(self.site_a != self.site_b,
                 "link endpoints must be two different sites")
        _require(self.at >= 0, f"fault time must be >= 0, got {self.at}")
        _require(self.restore_after is None or self.restore_after > 0,
                 "restore_after must be positive when given")


@dataclass(frozen=True)
class LinkFlap:
    """Flap the WAN link between two sites: starting at *at*, the link
    goes down for *down_s*, comes back for *up_s*, repeated *cycles*
    times.  The canonical edge-link chaos scenario (ROADMAP item 4):
    membership must quarantine-and-rejoin deterministically under it."""

    kind: ClassVar[str] = "link-flap"

    site_a: str
    site_b: str
    at: float
    down_s: float = 10.0
    up_s: float = 10.0
    cycles: int = 3

    def validate(self) -> None:
        _check_fields(self)
        _require(self.site_a != self.site_b,
                 "link endpoints must be two different sites")
        _require(self.at >= 0, f"fault time must be >= 0, got {self.at}")
        _require(self.down_s > 0, "down_s must be positive")
        _require(self.up_s > 0, "up_s must be positive")
        _require(self.cycles >= 1, "cycles must be >= 1")


@dataclass(frozen=True)
class LinkDegrade:
    """Rewrite a WAN link's bandwidth/latency for a window: at *at* the
    link's bandwidth is multiplied by *bandwidth_factor* and its latency
    by *latency_factor*; the original spec is restored after *duration*.

    Transfer *costs* change: scheduling, transfer times and neighbour
    ordering all see the degraded link."""

    kind: ClassVar[str] = "link-degrade"

    site_a: str
    site_b: str
    at: float
    duration: float
    bandwidth_factor: float = 0.1
    latency_factor: float = 5.0

    def validate(self) -> None:
        _check_fields(self)
        _require(self.site_a != self.site_b,
                 "link endpoints must be two different sites")
        _require(self.at >= 0, f"fault time must be >= 0, got {self.at}")
        _require(self.duration > 0, "degrade duration must be positive")
        _require(0.0 < self.bandwidth_factor <= 1.0,
                 f"bandwidth_factor must be in (0, 1], "
                 f"got {self.bandwidth_factor}")
        _require(self.latency_factor >= 1.0,
                 f"latency_factor must be >= 1, got {self.latency_factor}")


@dataclass(frozen=True)
class MessageFaults:
    """A window of probabilistic per-message faults (drop / duplicate /
    delay), optionally filtered by message kind and src/dst address
    prefix.  Probabilities are evaluated per message from the injector's
    seeded RNG stream."""

    kind: ClassVar[str] = "message-faults"

    at: float
    duration: float
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    delay_prob: float = 0.0
    delay_s: float = 0.5
    kinds: tuple[str, ...] | None = None     # message kinds; None = all
    src_prefix: str | None = None
    dst_prefix: str | None = None

    def validate(self) -> None:
        _check_fields(self)
        _require(self.at >= 0, f"fault time must be >= 0, got {self.at}")
        _require(self.duration > 0, "fault window duration must be positive")
        for prob, name in ((self.drop_prob, "drop_prob"),
                           (self.dup_prob, "dup_prob"),
                           (self.delay_prob, "delay_prob")):
            _check_prob(prob, name)
        _require(self.delay_s >= 0, "delay_s must be >= 0")
        _require(self.drop_prob or self.dup_prob or self.delay_prob,
                 "message-faults window has no effect (all probs zero)")

    def active(self, now: float) -> bool:
        return self.at <= now < self.at + self.duration

    def matches(self, msg: Message) -> bool:
        if self.kinds is not None and msg.kind not in self.kinds:
            return False
        if self.src_prefix is not None and \
                not msg.src.startswith(self.src_prefix):
            return False
        if self.dst_prefix is not None and \
                not msg.dst.startswith(self.dst_prefix):
            return False
        return True


#: every concrete fault spec type, keyed by its serialisation tag
SPEC_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (HostCrash, SiteOutage, ServerCrash, LinkDown, LinkFlap,
                LinkDegrade, MessageFaults)
}

#: message kinds a :meth:`FaultPlan.random` drop/duplicate window
#: targets: the loss-tolerant monitoring traffic
RANDOM_MESSAGE_KINDS = ("load-report", "echo-request", "echo-reply")

#: chance that a host or server crash of :meth:`FaultPlan.random` recovers
RECOVER_FRACTION = 0.7


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated, serialisable schedule of faults."""

    events: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if type(event) not in SPEC_TYPES.values():
                raise ConfigurationError(
                    f"unknown fault spec {type(event).__name__}; expected "
                    f"one of {sorted(SPEC_TYPES)}")
            event.validate()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- structure -------------------------------------------------------
    def host_faults(self) -> tuple:
        """The timed host/site state faults (crashes and outages)."""
        return tuple(e for e in self.events
                     if isinstance(e, (HostCrash, SiteOutage, ServerCrash)))

    def window_faults(self) -> tuple:
        """The windowed per-message faults."""
        return tuple(e for e in self.events if isinstance(e, MessageFaults))

    def link_faults(self) -> tuple:
        """The timed topology-level link faults (down/flap/degrade)."""
        return tuple(e for e in self.events
                     if isinstance(e, (LinkDown, LinkFlap, LinkDegrade)))

    def shifted(self, dt: float) -> "FaultPlan":
        """The same plan with every fault time moved by *dt* seconds.

        Plans are written with absolute simulated times; ``shifted`` lets
        a relative plan (times from zero) be installed mid-run.
        """
        return FaultPlan(events=tuple(
            dataclasses.replace(e, at=e.at + dt) for e in self.events))

    # -- serialisation ----------------------------------------------------
    def to_dicts(self) -> list[dict[str, Any]]:
        """JSON-ready representation (the reproducibility record)."""
        out = []
        for event in self.events:
            doc = dataclasses.asdict(event)
            if isinstance(event, MessageFaults) and doc["kinds"] is not None:
                doc["kinds"] = list(doc["kinds"])
            doc["kind"] = event.kind
            out.append(doc)
        return out

    @classmethod
    def from_dicts(cls, docs: list[dict[str, Any]]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dicts` output.

        A malformed entry — not a mapping, an unknown kind, missing or
        unexpected fields, ill-typed values — raises
        :class:`ConfigurationError` naming the entry's index and kind.
        """
        events = []
        for index, doc in enumerate(docs):
            if not isinstance(doc, Mapping):
                raise ConfigurationError(
                    f"fault plan entry {index} must be a mapping, "
                    f"got {type(doc).__name__}")
            doc = dict(doc)
            kind = doc.pop("kind", None)
            spec_cls = SPEC_TYPES.get(kind) if isinstance(kind, str) else None
            if spec_cls is None:
                raise ConfigurationError(
                    f"fault plan entry {index}: unknown fault kind {kind!r}; "
                    f"expected one of {sorted(SPEC_TYPES)}")
            try:
                if spec_cls is MessageFaults and \
                        isinstance(doc.get("kinds"), list):
                    doc["kinds"] = tuple(doc["kinds"])
                spec = spec_cls(**doc)
                spec.validate()
            except (TypeError, ValueError, ConfigurationError) as exc:
                raise ConfigurationError(
                    f"fault plan entry {index} ({kind}): {exc}") from exc
            events.append(spec)
        return cls(events=tuple(events))

    # -- seeded generation -------------------------------------------------
    @classmethod
    def random(cls, rng: np.random.Generator, hosts: list[str],
               sites: list[str] = (), horizon_s: float = 300.0, *,
               n_host_crashes: int = 2,
               n_message_windows: int = 2, n_partitions: int = 1,
               n_server_crashes: int = 0,
               n_link_flaps: int = 0,
               ) -> "FaultPlan":
        """A randomised-but-seeded plan for chaos testing.

        Every draw comes from *rng*, so the same generator state yields
        the same plan.  Drop/duplicate windows target the loss-tolerant
        monitoring kinds (:data:`RANDOM_MESSAGE_KINDS`); a crashed host or
        server recovers with probability :data:`RECOVER_FRACTION`.

        ``n_partitions`` draws :class:`LinkDown` windows over *sites*
        pairs; each pair must share a direct link, since installing the
        plan checks the edge.

        The *hosts* pool never contains the site-server machines (they
        are addressed as ``site/server``, not ``site/host``), so by
        default random plans **never crash a VDCE server** — the control
        plane is spared.  A positive ``n_server_crashes`` draws that many
        :class:`ServerCrash` faults over *sites*; without the recovery
        subsystem enabled a server crash strands that site's in-flight
        executions (see ``docs/faults.md``).  Server draws happen after
        all other draws, so a plan with server crashes extends the plan
        without them; link-flap draws (``n_link_flaps``
        :class:`LinkFlap` faults over the *sites* pairs) come last
        again, preserving the same prefix for every earlier count.
        """
        _require(horizon_s > 0, "horizon_s must be positive")
        events: list[Any] = []
        hosts = list(hosts)
        if hosts and n_host_crashes > 0:
            count = min(n_host_crashes, len(hosts))
            victims = rng.choice(len(hosts), size=count, replace=False)
            for index in victims:
                recover = (float(rng.uniform(10.0, 0.25 * horizon_s))
                           if rng.random() < RECOVER_FRACTION else None)
                events.append(HostCrash(
                    host=hosts[int(index)],
                    at=float(rng.uniform(0.05, 0.6) * horizon_s),
                    recover_after=recover))
        for _ in range(n_message_windows):
            events.append(MessageFaults(
                at=float(rng.uniform(0.0, 0.7) * horizon_s),
                duration=float(rng.uniform(5.0, 25.0)),
                drop_prob=float(rng.uniform(0.05, 0.4)),
                dup_prob=float(rng.uniform(0.0, 0.2)),
                delay_prob=float(rng.uniform(0.05, 0.4)),
                delay_s=float(rng.uniform(0.1, 1.5)),
                kinds=RANDOM_MESSAGE_KINDS))
        sites = list(sites)
        if len(sites) >= 2 and n_partitions > 0:
            for _ in range(n_partitions):
                pair = rng.choice(len(sites), size=2, replace=False)
                # short partitions: retry budgets (~15 s by default) must
                # be able to ride them out, see docs/faults.md
                events.append(LinkDown(
                    site_a=sites[int(pair[0])], site_b=sites[int(pair[1])],
                    at=float(rng.uniform(0.1, 0.7) * horizon_s),
                    restore_after=float(rng.uniform(5.0, 12.0))))
        if sites and n_server_crashes > 0:
            for _ in range(n_server_crashes):
                site = sites[int(rng.integers(len(sites)))]
                recover = (float(rng.uniform(10.0, 0.25 * horizon_s))
                           if rng.random() < RECOVER_FRACTION else None)
                events.append(ServerCrash(
                    site=site,
                    at=float(rng.uniform(0.05, 0.6) * horizon_s),
                    recover_after=recover))
        if len(sites) >= 2 and n_link_flaps > 0:
            for _ in range(n_link_flaps):
                pair = rng.choice(len(sites), size=2, replace=False)
                # down windows long enough to trip suspicion, up windows
                # long enough for heartbeats to clear it (docs/federation.md)
                events.append(LinkFlap(
                    site_a=sites[int(pair[0])], site_b=sites[int(pair[1])],
                    at=float(rng.uniform(0.05, 0.4) * horizon_s),
                    down_s=float(rng.uniform(8.0, 20.0)),
                    up_s=float(rng.uniform(8.0, 20.0)),
                    cycles=int(rng.integers(1, 4))))
        events.sort(key=lambda e: (e.at, e.kind))
        return cls(events=tuple(events))
