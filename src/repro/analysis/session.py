"""Wiring a :class:`HBRecorder` into a built testbed.

An :class:`AnalysisSession` owns the attach/detach lifecycle:

* ``Environment._hb`` — kernel hooks + run-loop delegation;
* :data:`repro.analysis.hooks.HB` — the layer-hook module global;
* write-tracking subscriptions on every site repository's three
  journal-publishing databases (the same ``subscribe``/``_notify``
  machinery the :class:`~repro.repository.delta.DeltaTracker` rides);
* site tags on the daemon root processes (site manager, group
  managers, monitors, data managers, application controllers, standby
  replicas, heartbeats) so every context inherits the site whose state
  it is allowed to touch — the attribution behind the cross-site
  access matrix.

Use as a context manager around the simulation run::

    with AnalysisSession(vdce.env, sites=vdce.world.sites) as session:
        session.track_vdce(vdce)
        ...drive the simulation...
    report = session.recorder.unsuppressed_races()
"""

from __future__ import annotations

from typing import Any

from repro.analysis import hooks
from repro.analysis.hb import HBRecorder
from repro.simcore.engine import Process

#: daemon attributes that hold root processes worth site-tagging
_PROC_ATTRS = ("_inbox_proc", "_echo_proc", "_sampler", "_responder",
               "_proc")

#: the journal-publishing repository databases (user accounts has no
#: subscribe hook and is written only from the editor session, outside
#: simulated time)
_TRACKED_DBS = ("resource_performance", "task_performance",
                "task_constraints")


class AnalysisSession:
    """Attach/detach scope for the happens-before sanitizer."""

    def __init__(self, env: Any, sites: Any = (),
                 stack_depth: int = 6) -> None:
        self.env = env
        self.recorder = HBRecorder(sites=tuple(sites),
                                   stack_depth=stack_depth)
        self._subscriptions: list[tuple[Any, Any]] = []
        self._attached = False

    # -- lifecycle -------------------------------------------------------
    def attach(self) -> "AnalysisSession":
        if self._attached:
            return self
        if hooks.HB is not None:
            raise RuntimeError("another analysis session is attached")
        self.env._hb = self.recorder
        hooks.HB = self.recorder
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        self.env._hb = None
        hooks.HB = None
        for db, cb in self._subscriptions:
            try:
                db._subscribers.remove(cb)
            except ValueError:  # pragma: no cover - already re-wired
                pass
        self._subscriptions.clear()
        self._attached = False

    def __enter__(self) -> "AnalysisSession":
        return self.attach()

    def __exit__(self, *exc: Any) -> None:
        self.detach()

    # -- testbed wiring --------------------------------------------------
    def track_repository(self, repo: Any) -> None:
        """Subscribe write tracking to *repo*'s journal-publishing DBs."""
        rec = self.recorder
        site = repo.site
        for name in _TRACKED_DBS:
            db = getattr(repo, name)

            def _on_write(kind: str, a: str = "", b: str = "",
                          _site: str = site, _name: str = name) -> None:
                rec.write(_site, _name, f"{kind}:{a}")

            db.subscribe(_on_write)
            self._subscriptions.append((db, _on_write))

    def tag_daemon(self, daemon: Any, site: str) -> None:
        """Site-tag every root process attribute *daemon* exposes."""
        for attr in _PROC_ATTRS:
            proc = getattr(daemon, attr, None)
            if isinstance(proc, Process):
                self.recorder.tag_process(proc, site)

    def track_vdce(self, vdce: Any) -> None:
        """Wire a whole :class:`~repro.core.vdce.VDCE` facade."""
        self.recorder.sites.update(vdce.world.sites)
        for site, repo in vdce.repositories.items():
            self.track_repository(repo)
        for site, sm in vdce.site_managers.items():
            self.tag_daemon(sm, site)
        for (site, _group), gm in vdce.group_managers.items():
            self.tag_daemon(gm, site)
        for registry in (vdce.monitors, vdce.data_managers,
                         vdce.app_controllers):
            for addr, daemon in registry.items():
                self.tag_daemon(daemon, addr.split("/", 1)[0])
        federation = getattr(vdce, "federation", None)
        if federation is not None:
            for site, daemon in federation.daemons.items():
                self.tag_daemon(daemon, site)
        recovery = getattr(vdce, "recovery", None)
        if recovery is not None:
            for site, state in recovery.sites.items():
                self.tag_daemon(state.heartbeat, site)
                for replica in state.replicas:
                    # A standby holds only the shipped log; the
                    # promotion's roll-forward reports through the
                    # dedicated replica cells in recovery/replication.py
                    # (distinct from the primary's DB cells), so only
                    # the processes need tagging here.
                    self.tag_daemon(replica, site)
