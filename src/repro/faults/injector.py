"""Deterministic fault injection over the simulated network and hosts.

The :class:`FaultInjector` executes a :class:`~repro.faults.plan.FaultPlan`
against a live environment: host, site and server crashes are scheduled
as simulated processes that flip ``up`` flags (so the Group Manager echo
pipeline detects them), link faults as processes that rewrite
:class:`~repro.net.topology.Topology` link state, while windowed
per-message faults install a hook into
:meth:`repro.net.network.Network.send` that can drop, duplicate or delay
individual messages.

Every injected fault is recorded as a row in :attr:`FaultInjector.events`
whose canonical JSON form (:meth:`log_json`) is byte-identical across
runs with the same seed — the determinism contract the chaos harness
asserts.  An observed run (the network's ``obs`` handle enabled) also
gets a ``fault:*`` record in ``obs.trace`` for post-mortem analysis via
:mod:`repro.viz.postmortem`.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from typing import Any

import numpy as np

from repro.faults.plan import (
    FaultPlan,
    HostCrash,
    LinkDegrade,
    LinkDown,
    LinkFlap,
    MessageFaults,
    ServerCrash,
    SiteOutage,
)
from repro.net.message import Message
from repro.net.network import FaultAction, Network
from repro.resources.host import Host
from repro.simcore.engine import Environment
from repro.util.errors import ConfigurationError


class FaultInjector:
    """Executes fault plans; the single source of injected-fault truth."""

    #: actor name used for every ``fault:*`` trace record
    ACTOR = "faults"

    def __init__(self, env: Environment, network: Network,
                 rng: np.random.Generator | None = None,
                 host_resolver: Callable[[str], Host] | None = None,
                 site_hosts: Callable[[str], Iterable[Host]] | None = None,
                 site_resolver: Callable[[str], Any] | None = None,
                 ) -> None:
        self.env = env
        self.network = network
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._host_resolver = host_resolver
        self._site_hosts = site_hosts
        self._site_resolver = site_resolver
        self.plans: list[FaultPlan] = []
        #: canonical log of every fault actually injected (see log_json)
        self.events: list[dict[str, Any]] = []
        self._windows: list[MessageFaults] = []
        self._hook_installed = False

    # -- installation -----------------------------------------------------
    def install(self, plan: FaultPlan) -> "FaultInjector":
        """Schedule a plan's faults; may be called any number of times.

        Timed host, site, server and link faults must lie in the
        simulated future; message-fault windows are evaluated against the
        clock, so windows that already started simply apply for their
        remainder.
        """
        for spec in plan.host_faults() + plan.link_faults():
            if spec.at < self.env.now:
                raise ConfigurationError(
                    f"cannot schedule {spec.kind} in the past "
                    f"({spec.at} < {self.env.now})")
        self.plans.append(plan)
        for spec in plan.events:
            if isinstance(spec, HostCrash):
                self._schedule_host_crash(spec)
            elif isinstance(spec, SiteOutage):
                self._schedule_site_outage(spec)
            elif isinstance(spec, ServerCrash):
                self._schedule_server_crash(spec)
            elif isinstance(spec, LinkDown):
                self._schedule_link_down(spec)
            elif isinstance(spec, LinkFlap):
                self._schedule_link_flap(spec)
            elif isinstance(spec, LinkDegrade):
                self._schedule_link_degrade(spec)
            else:  # MessageFaults
                self._windows.append(spec)
        if self._windows and not self._hook_installed:
            self.network.fault_hook = self._on_message
            self._hook_installed = True
        return self

    # -- bookkeeping -------------------------------------------------------
    def _record(self, fault: str, **detail: Any) -> None:
        self.events.append({"t": self.env.now, "fault": fault, **detail})
        obs = self.network.obs
        if obs.enabled:
            obs.trace.record(self.env.now, f"fault:{fault}", self.ACTOR,
                             **detail)

    def event_log(self) -> list[dict[str, Any]]:
        """A copy of the injected-fault event rows, in injection order."""
        return [dict(row) for row in self.events]

    def log_json(self) -> str:
        """Canonical JSON of the event log.

        Byte-identical across runs with the same root seed — the
        determinism contract chaos tests assert (docs/faults.md).
        """
        return json.dumps(self.events, sort_keys=True,
                          separators=(",", ":"))

    def counts(self) -> dict[str, int]:
        """Histogram of injected faults per fault kind."""
        out: dict[str, int] = {}
        for row in self.events:
            out[row["fault"]] = out.get(row["fault"], 0) + 1
        return out

    # -- host/site state faults ---------------------------------------------
    def _resolve(self, address: str) -> Host:
        if self._host_resolver is None:
            raise ConfigurationError(
                "injector has no host resolver; host/site faults need one "
                "(the VDCE facade wires it via apply_fault_plan)")
        return self._host_resolver(address)

    def _schedule_host_crash(self, spec: HostCrash) -> None:
        host = self._resolve(spec.host)

        def proc(env):
            yield env.timeout(spec.at - env.now)
            host.up = False
            self._record("host-down", host=host.address)
            if spec.recover_after is not None:
                yield env.timeout(spec.recover_after)
                host.up = True
                self._record("host-up", host=host.address)

        self.env.process(proc(self.env), name=f"fault:crash:{spec.host}")

    def _schedule_site_outage(self, spec: SiteOutage) -> None:
        if self._site_hosts is None:
            raise ConfigurationError(
                "injector has no site resolver; site outages need one "
                "(the VDCE facade wires it via apply_fault_plan)")
        hosts = list(self._site_hosts(spec.site))

        def proc(env):
            yield env.timeout(spec.at - env.now)
            for host in hosts:
                host.up = False
            self._record("site-down", site=spec.site, hosts=len(hosts))
            if spec.recover_after is not None:
                yield env.timeout(spec.recover_after)
                for host in hosts:
                    host.up = True
                self._record("site-up", site=spec.site, hosts=len(hosts))

        self.env.process(proc(self.env), name=f"fault:outage:{spec.site}")

    def _schedule_server_crash(self, spec: ServerCrash) -> None:
        if self._site_resolver is None:
            raise ConfigurationError(
                "injector has no site resolver; server crashes need one "
                "(the VDCE facade wires it via apply_fault_plan)")
        site = self._site_resolver(spec.site)

        def proc(env):
            yield env.timeout(spec.at - env.now)
            site.server_up = False
            self._record("server-down", site=spec.site)
            if spec.recover_after is not None:
                yield env.timeout(spec.recover_after)
                # the dedicated machine comes back; if a failover already
                # moved the server role onto a standby it stays there
                site.server_up = True
                self._record("server-up", site=spec.site,
                             role_moved=site.server_role_host is not None)

        self.env.process(proc(self.env), name=f"fault:server:{spec.site}")

    # -- topology-level link faults ------------------------------------------
    def _link_label(self, a: str, b: str) -> str:
        return "~".join(sorted((a, b)))

    def _link_gone(self, a: str, b: str) -> bool:
        """A link-fault step whose edge vanished (a ``site_leave`` took
        the endpoint away mid-plan) is a deterministic no-op, not a
        crash — the departure already severed the link harder than any
        fault could."""
        if self.network.topology.has_link(a, b):
            return False
        self._record("link-fault-skipped", link=self._link_label(a, b),
                     reason="link-removed")
        return True

    def _schedule_link_down(self, spec: LinkDown) -> None:
        topo = self.network.topology
        topo.link(spec.site_a, spec.site_b)  # validate the edge exists now

        def proc(env):
            yield env.timeout(spec.at - env.now)
            if self._link_gone(spec.site_a, spec.site_b):
                return
            topo.set_link_up(spec.site_a, spec.site_b, False)
            self._record("link-down",
                         link=self._link_label(spec.site_a, spec.site_b))
            if spec.restore_after is not None:
                yield env.timeout(spec.restore_after)
                if self._link_gone(spec.site_a, spec.site_b):
                    return
                topo.set_link_up(spec.site_a, spec.site_b, True)
                self._record("link-up",
                             link=self._link_label(spec.site_a, spec.site_b))

        self.env.process(
            proc(self.env),
            name=f"fault:linkdown:{self._link_label(spec.site_a, spec.site_b)}")

    def _schedule_link_flap(self, spec: LinkFlap) -> None:
        topo = self.network.topology
        topo.link(spec.site_a, spec.site_b)
        label = self._link_label(spec.site_a, spec.site_b)

        def proc(env):
            yield env.timeout(spec.at - env.now)
            for cycle in range(spec.cycles):
                if self._link_gone(spec.site_a, spec.site_b):
                    return
                topo.set_link_up(spec.site_a, spec.site_b, False)
                self._record("link-down", link=label, cycle=cycle + 1)
                yield env.timeout(spec.down_s)
                if self._link_gone(spec.site_a, spec.site_b):
                    return
                topo.set_link_up(spec.site_a, spec.site_b, True)
                self._record("link-up", link=label, cycle=cycle + 1)
                if cycle + 1 < spec.cycles:
                    yield env.timeout(spec.up_s)

        self.env.process(proc(self.env), name=f"fault:linkflap:{label}")

    def _schedule_link_degrade(self, spec: LinkDegrade) -> None:
        topo = self.network.topology
        topo.link(spec.site_a, spec.site_b)
        label = self._link_label(spec.site_a, spec.site_b)

        def proc(env):
            yield env.timeout(spec.at - env.now)
            if self._link_gone(spec.site_a, spec.site_b):
                return
            # capture the spec at degrade time, not install time: an
            # earlier fault may have rewritten it
            original = topo.link(spec.site_a, spec.site_b)
            degraded = type(original)(
                latency_s=original.latency_s * spec.latency_factor,
                bandwidth_bps=original.bandwidth_bps
                * spec.bandwidth_factor)
            topo.set_link(spec.site_a, spec.site_b, degraded)
            self._record("link-degrade", link=label,
                         bandwidth_factor=spec.bandwidth_factor,
                         latency_factor=spec.latency_factor)
            yield env.timeout(spec.duration)
            if self._link_gone(spec.site_a, spec.site_b):
                return
            topo.set_link(spec.site_a, spec.site_b, original)
            self._record("link-restore", link=label)

        self.env.process(proc(self.env), name=f"fault:linkdegrade:{label}")

    # -- the Network.send hook ----------------------------------------------
    def _on_message(self, msg: Message) -> FaultAction | None:
        """Per-message fault verdict; draws RNG in deterministic order."""
        now = self.env.now
        extra_delay = 0.0
        duplicates = 0
        touched = False
        for spec in self._windows:
            if not spec.active(now) or not spec.matches(msg):
                continue
            if spec.drop_prob and self.rng.random() < spec.drop_prob:
                self._record("msg-drop", kind=msg.kind, src=msg.src,
                             dst=msg.dst, cause="message-faults")
                return FaultAction(drop=True)
            if spec.dup_prob and self.rng.random() < spec.dup_prob:
                duplicates += 1
                touched = True
                self._record("msg-dup", kind=msg.kind, src=msg.src,
                             dst=msg.dst)
            if spec.delay_prob and self.rng.random() < spec.delay_prob:
                extra_delay += spec.delay_s
                touched = True
                self._record("msg-delay", kind=msg.kind, src=msg.src,
                             dst=msg.dst, delay_s=spec.delay_s)
        if not touched:
            return None
        return FaultAction(extra_delay_s=extra_delay, duplicates=duplicates)
