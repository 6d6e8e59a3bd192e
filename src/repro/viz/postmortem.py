"""Post-mortem visualization: persist a run + trace, reload, and render.

Paper section 2.3.2: "The VDCE visualization service provides both
real-time and post-mortem visualizations."  Real-time views read the
live tracer; this module is the post-mortem half — a JSON archive of
one application run (allocation, completions, trace slice, environment
summary) that can be reloaded later and fed to the same view classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.run import ApplicationRun
from repro.simcore.trace import TraceRecord, Tracer
from repro.util.errors import RuntimeSystemError

#: trace categories worth archiving for performance forensics
_DEFAULT_CATEGORIES = (
    "task-start", "task-finish", "task-terminated", "vdce:rescheduled",
    "sm:db-update", "sm:start-signal", "gm:host-down", "gm:host-up",
    # fault forensics: injected faults, retries, and detection events
    "fault:host-down", "fault:host-up", "fault:site-down", "fault:site-up",
    "fault:server-down", "fault:server-up", "fault:link-down",
    "fault:link-up", "fault:link-degrade", "fault:link-restore",
    "net:partition-drop", "fault:msg-drop", "fault:msg-delay",
    "fault:msg-dup", "dm:retry", "dm:setup-abandoned", "sm:ack-waived",
    "mon:crashed", "mon:recovered",
)


@dataclass
class RunArchive:
    """A self-contained, JSON-serialisable record of one run."""

    application: str
    execution_id: str
    status: str
    submitted_at: float
    scheduled_at: float
    started_at: float
    finished_at: float
    reschedules: int
    allocation: dict[str, dict[str, Any]]
    tasks: list[dict[str, Any]]               # per-task timeline rows
    trace: list[dict[str, Any]] = field(default_factory=list)

    # -- construction ----------------------------------------------------
    @classmethod
    def from_run(cls, run: ApplicationRun,
                 tracer: Tracer | None = None,
                 categories: tuple[str, ...] = _DEFAULT_CATEGORIES
                 ) -> "RunArchive":
        if run.table is None:
            raise RuntimeSystemError(
                "cannot archive a run that was never scheduled")
        allocation = {
            nid: {"site": e.site, "hosts": list(e.hosts),
                  "predicted_time_s": e.predicted_time_s,
                  "processors": e.processors}
            for nid, e in run.table.entries.items()
        }
        tasks = [
            {"node": nid, "host": host, "start_s": start,
             "finish_s": finish}
            for nid, host, start, finish in run.task_timeline()
        ]
        trace = []
        if tracer is not None:
            for rec in tracer.records:
                if rec.category in categories:
                    detail = {k: v for k, v in rec.detail.items()
                              if isinstance(v, (str, int, float, bool,
                                                type(None)))}
                    trace.append({"time": rec.time,
                                  "category": rec.category,
                                  "actor": rec.actor, "detail": detail})
        return cls(
            application=run.graph.name, execution_id=run.execution_id,
            status=run.status, submitted_at=run.submitted_at,
            scheduled_at=run.scheduled_at, started_at=run.started_at,
            finished_at=run.finished_at, reschedules=run.reschedules,
            allocation=allocation, tasks=tasks, trace=trace)

    # -- persistence ---------------------------------------------------------
    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.__dict__, indent=2,
                                         sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "RunArchive":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise RuntimeSystemError(
                f"cannot load run archive from {path}: {exc}") from exc
        try:
            return cls(**doc)
        except TypeError as exc:
            raise RuntimeSystemError(
                f"{path} is not a run archive: {exc}") from exc

    # -- derived views ----------------------------------------------------------
    @property
    def makespan(self) -> float:
        return self.finished_at - self.submitted_at

    def tracer(self) -> Tracer:
        """Rehydrate the archived trace slice for the live view classes."""
        tr = Tracer()
        for row in self.trace:
            tr.records.append(TraceRecord(
                time=row["time"], category=row["category"],
                actor=row["actor"], detail=dict(row["detail"])))
        return tr

    def host_utilization(self) -> dict[str, float]:
        """Fraction of the execution window each host spent busy."""
        window = max(self.finished_at - self.started_at, 1e-12)
        busy: dict[str, float] = {}
        for row in self.tasks:
            busy[row["host"]] = busy.get(row["host"], 0.0) \
                + (row["finish_s"] - row["start_s"])
        return {h: min(1.0, t / window) for h, t in sorted(busy.items())}

    def render(self, width: int = 40) -> str:
        """A Gantt identical in spirit to ApplicationPerformanceView."""
        if not self.tasks:
            return f"[{self.application}] empty archive"
        t0 = min(r["start_s"] for r in self.tasks)
        t1 = max(r["finish_s"] for r in self.tasks)
        span = max(t1 - t0, 1e-9)
        lines = [f"Post-mortem — {self.application} "
                 f"({self.status}, makespan {self.makespan:.3f}s, "
                 f"{self.reschedules} reschedules)"]
        name_w = max(len(r["node"]) for r in self.tasks)
        host_w = max(len(r["host"]) for r in self.tasks)
        for r in self.tasks:
            lead = round((r["start_s"] - t0) / span * width)
            dur = max(1, round((r["finish_s"] - r["start_s"]) / span
                               * width))
            bar = " " * lead + "█" * min(dur, width - lead)
            lines.append(f"  {r['node']:<{name_w}}  {r['host']:<{host_w}}"
                         f"  |{bar:<{width}}|")
        lines.append("  host utilization during execution:")
        for host, frac in self.host_utilization().items():
            lines.append(f"    {host:<{host_w}}  {frac:6.1%}")
        return "\n".join(lines)


def archive_run(run: ApplicationRun, path: str | Path,
                tracer: Tracer | None = None) -> RunArchive:
    """Convenience: build + save in one call."""
    archive = RunArchive.from_run(run, tracer=tracer)
    archive.save(path)
    return archive
