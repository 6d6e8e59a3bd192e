"""Replaying traffic through a real VDCE: the full-fidelity backend.

The capacity backend models execution; this backend *runs* it — every
dispatched job builds its AFG template and goes through the complete
submit → schedule → distribute → execute pipeline of a
:class:`~repro.core.vdce.VDCE`, including fault plans and server
failover when the facade carries them.  It is the backend the chaos
suite drives to assert exactly-once execution per tenant under
failures; keep ``max_in_flight`` small — each in-flight job is a whole
application run.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.vdce import VDCE, ApplicationRun
from repro.simcore.engine import Event
from repro.traffic.templates import template_by_name
from repro.traffic.trace import JobRequest


@dataclass
class ReplayedRun:
    """One trace request bound to its live application run."""

    req: JobRequest
    run: ApplicationRun


@dataclass
class VdceReplayBackend:
    """Execute dispatched jobs as real applications on a started VDCE."""

    vdce: VDCE
    sites: tuple[str, ...]
    k_remote_sites: int = 1
    max_in_flight: int = 4
    in_flight: int = 0
    dispatched: int = 0
    runs: list[ReplayedRun] = field(default_factory=list)

    def fits(self, req: JobRequest) -> bool:
        return self.in_flight < self.max_in_flight \
            and self._next_site() != ""

    def ever_fits(self, req: JobRequest) -> bool:
        return bool(req.template)

    def _next_site(self) -> str:
        """Round-robin over sites whose server (or promoted standby) is
        up: a submit to a headless site is a lost message, so dispatch
        waits — the pump retries on the next admission/completion, by
        which time failover has promoted a standby."""
        count = len(self.sites)
        for offset in range(count):
            site = self.sites[(self.dispatched + offset) % count]
            if self.vdce.world.sites[site].server_is_up():
                return site
        return ""

    def start(self, req: JobRequest,
              on_complete: Callable[[], None]) -> None:
        template = template_by_name(req.template)
        graph = template.build(self.vdce.registry)
        site = self._next_site()
        if not site:
            raise RuntimeError(
                f"backend.start with every site server down for {req.job}")
        self.dispatched += 1
        self.in_flight += 1
        process, run = self.vdce.submit(
            graph, site, k_remote_sites=self.k_remote_sites)
        self.runs.append(ReplayedRun(req=req, run=run))

        def finish(done: Event) -> None:
            # a failed submit keeps its slot: the kernel already records
            # the failure in ``env.failed_processes``
            if done.ok:
                self.in_flight -= 1
                on_complete()

        process.add_callback(finish)

    # -- chaos assertions --------------------------------------------------
    def completions_by_tenant(self) -> dict[str, int]:
        """Completed task-executions per tenant (exactly-once evidence)."""
        out: dict[str, int] = {}
        for item in self.runs:
            if item.run.status == "completed":
                out[item.req.tenant] = (out.get(item.req.tenant, 0)
                                        + len(item.run.completions))
        return out

    def expected_tasks_by_tenant(self) -> dict[str, int]:
        """Graph sizes of completed runs, grouped by tenant."""
        out: dict[str, int] = {}
        for item in self.runs:
            if item.run.status == "completed":
                out[item.req.tenant] = (out.get(item.req.tenant, 0)
                                        + len(item.run.graph))
        return out
