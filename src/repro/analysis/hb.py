"""Vector-clock happens-before recorder for the DES kernel.

The recorder assigns a logical *context* to every unit of sequential
execution the kernel dispatches — a :class:`~repro.simcore.engine.Process`
resume, a :class:`_Callback` entry fired by ``call_later``, a persistent
composite-event propagator (``AllOf``), or a one-shot plain callback —
and maintains a vector clock per context.  Causal edges:

* **program order** within a context (the per-context ``count``);
* **spawn**: ``Process.__init__`` snapshots the spawning context;
* **trigger**: ``Event.succeed``/``fail``/process termination/interrupt
  snapshot the triggering context; every waiter joins the snapshot when
  the event dispatches;
* **call_later**: the entry carries the scheduling context's snapshot;
* **store handoffs**: a buffered item carries its putter's snapshot in a
  FIFO clock queue mirroring ``Store.items``; the consumer joins it on
  ``get``/``try_get`` (direct handoffs ride the trigger edge);
* **network delivery** is spawn + store composition — no extra edge.

Instrumented layers report shared-state *cell* accesses
(:meth:`HBRecorder.read` / :meth:`HBRecorder.write`); a cell is a
``(site, name)`` pair (repository DB, selector view, allocation table,
WAL, replica).  Two same-tick accesses to one cell conflict when at
least one writes; a conflict whose contexts are not ordered by the
clocks is a **race** — exactly the pair whose outcome would depend on
scheduling once the simulation is sharded across processes
(ROADMAP 3(c)).  Both access stacks are captured so reports are
actionable.

The recorder also keeps the **cross-site access matrix**: counts of
direct cell accesses by owner site versus accessor site, and of
messages entering :class:`~repro.net.network.Network` per (src, dst)
site pair.  A clean off-diagonal (every cross-site interaction a
network message, no direct access) is the site-autonomy certificate.

Known imprecision (documented, deliberate): a process that attaches to
an event *after* the event's dispatch tick resumes through a
``_Resume`` record whose trigger clock may already be released — it
falls back to program order, which can only report false positives,
never mask a real race, and has not produced one on the tree.
"""

from __future__ import annotations

import sys
from collections import deque
from heapq import heappop
from dataclasses import dataclass, field
from typing import Any

from repro.simcore.engine import (
    _INIT,
    _NO_WAITERS,
    _Callback,
    _Resume,
    Event,
    Process,
)
from repro.util.errors import SimulationError

#: Cell identifier: (owner site, state name).
Cell = tuple[str, str]


class _Ctx:
    """One unit of sequential execution with its vector clock.

    ``cid`` is assigned lazily, the first time the context touches a
    tracked cell: relay/delivery contexts that never access shared state
    stay anonymous, which keeps every vector clock proportional to the
    number of *state-touching* contexts rather than the number of
    events.
    """

    __slots__ = ("cid", "count", "vc", "label", "site")

    def __init__(self, label: str, site: str | None = None) -> None:
        self.cid: int | None = None
        self.count = 0
        self.vc: dict[int, int] = {}
        self.label = label
        self.site = site


class _Access:
    """One recorded cell access within the current tick."""

    __slots__ = ("write", "cid", "count", "label", "site", "detail", "stack")

    def __init__(self, write: bool, cid: int, count: int, label: str,
                 site: str | None, detail: str, stack: tuple[str, ...]):
        self.write = write
        self.cid = cid
        self.count = count
        self.label = label
        self.site = site
        self.detail = detail
        self.stack = stack

    def to_dict(self) -> dict[str, Any]:
        return {
            "op": "write" if self.write else "read",
            "context": self.label,
            "site": self.site,
            "detail": self.detail,
            "stack": list(self.stack),
        }


@dataclass
class Race:
    """A causally-unordered same-tick conflicting access pair."""

    cell: Cell
    time: float
    first: _Access
    second: _Access
    suppressed: bool = False
    suppression: str | None = None

    @property
    def key(self) -> tuple[str, ...]:
        """Deterministic dedup/suppression key (stable across seeds)."""
        return (f"{self.cell[0]}/{self.cell[1]}",
                self.first.label, "w" if self.first.write else "r",
                self.second.label, "w" if self.second.write else "r")

    def to_dict(self) -> dict[str, Any]:
        return {
            "cell": f"{self.cell[0]}/{self.cell[1]}",
            "time": self.time,
            "first": self.first.to_dict(),
            "second": self.second.to_dict(),
            "suppressed": self.suppressed,
            "suppression": self.suppression,
        }


@dataclass
class CellStats:
    """Per-cell access tally for the report."""

    reads: int = 0
    writes: int = 0
    accessors: set[str] = field(default_factory=set)


def _short_path(filename: str) -> str:
    parts = filename.replace("\\", "/").split("/")
    for anchor in ("repro", "tests", "tools"):
        if anchor in parts:
            return "/".join(parts[len(parts) - 1 - parts[::-1].index(anchor):])
    return parts[-1]


class HBRecorder:
    """The happens-before engine: contexts, clocks, cells, the matrix.

    Attach via :class:`~repro.analysis.session.AnalysisSession`, which
    sets ``Environment._hb`` (kernel hooks + run-loop delegation) and
    :data:`repro.analysis.hooks.HB` (layer hooks) to this object.
    """

    def __init__(self, sites: tuple[str, ...] = (),
                 stack_depth: int = 6) -> None:
        self.sites: set[str] = set(sites)
        self.stack_depth = stack_depth
        self._next_cid = 1
        self._external = _Ctx("external")
        self.current: _Ctx = self._external
        self._proc_ctxs: dict[Process, _Ctx] = {}
        self._obj_ctxs: dict[Any, _Ctx] = {}
        # Per-tick state (released whenever simulated time advances):
        self._tick_time: float | None = None
        self._event_clocks: dict[Any, dict[int, int]] = {}
        self._spawn_clocks: dict[Process, dict[int, int]] = {}
        self._accesses: dict[Cell, list[_Access]] = {}
        # Cross-tick state:
        self._cb_clocks: dict[Any, dict[int, int]] = {}
        self._store_clocks: dict[Any, deque] = {}
        # Findings:
        self.races: list[Race] = []
        self._race_keys: set[tuple[str, ...]] = set()
        self.cell_stats: dict[Cell, CellStats] = {}
        #: direct cell accesses: (accessor site or "client", owner site) -> n
        self.direct_matrix: dict[tuple[str, str], int] = {}
        #: network messages: (src site or "client", dst site) -> n
        self.network_matrix: dict[tuple[str, str], int] = {}
        # Stable cell names for per-instance state (selector views):
        self._obj_names: dict[Any, str] = {}
        self._name_counters: dict[str, int] = {}

    # -- context management ----------------------------------------------
    def _proc_ctx(self, proc: Process) -> _Ctx:
        ctx = self._proc_ctxs.get(proc)
        if ctx is None:
            ctx = _Ctx(proc.name, self.current.site)
            self._proc_ctxs[proc] = ctx
        return ctx

    def tag_process(self, proc: Process, site: str) -> None:
        """Pin *proc* (and contexts it spawns from now on) to *site*."""
        self._proc_ctx(proc).site = site

    def snapshot(self) -> dict[int, int]:
        """The current context's clock as an immutable-by-convention dict."""
        cur = self.current
        snap = dict(cur.vc)
        if cur.cid is not None:
            snap[cur.cid] = cur.count
        return snap

    def _activate(self, ctx: _Ctx,
                  clock: dict[int, int] | None = None,
                  extra: dict[int, int] | None = None) -> None:
        ctx.count += 1
        vc = ctx.vc
        for c in (clock, extra):
            if c:
                for k, v in c.items():
                    if vc.get(k, 0) < v:
                        vc[k] = v
        self.current = ctx

    def _join_current(self, clock: dict[int, int] | None) -> None:
        if clock:
            vc = self.current.vc
            for k, v in clock.items():
                if vc.get(k, 0) < v:
                    vc[k] = v

    # -- kernel hooks (Environment._hb) ----------------------------------
    def on_spawn(self, proc: Process) -> None:
        """``Process.__init__``: spawner happens-before first resume."""
        self._proc_ctx(proc)
        self._spawn_clocks[proc] = self.snapshot()

    def on_trigger(self, event: Event) -> None:
        """``succeed``/``fail``/finalize/interrupt: the triggering
        context happens-before every waiter's resume."""
        self._event_clocks[event] = self.snapshot()

    def on_schedule(self, entry: Any) -> None:
        """``call_later``: scheduler happens-before the fired callback."""
        self._cb_clocks[entry] = self.snapshot()

    # -- store hooks (Store via env._hb) ---------------------------------
    def _clocks_for(self, store: Any, expected: int) -> deque:
        dq = self._store_clocks.get(store)
        if dq is None:
            # Align with items buffered before the session attached.
            dq = deque([None] * expected)
            self._store_clocks[store] = dq
        elif len(dq) != expected:  # defensive resync, oldest-first
            while len(dq) > expected:
                dq.popleft()
            while len(dq) < expected:
                dq.appendleft(None)
        return dq

    def store_append(self, store: Any) -> None:
        """``Store.put`` buffered an item: enqueue the putter's clock."""
        self._clocks_for(store, len(store.items) - 1).append(self.snapshot())

    def store_handoff(self, store: Any, get_event: Any) -> None:
        """``Store.get`` takes a buffered item: attach its putter's clock
        so the getter joins it on resume."""
        dq = self._clocks_for(store, len(store.items) + 1)
        clock = dq.popleft()
        if clock:
            get_event._hb_extra = clock

    def store_taken(self, store: Any) -> None:
        """``try_get`` popped an item synchronously: join in place."""
        dq = self._clocks_for(store, len(store.items) + 1)
        self._join_current(dq.popleft())

    # -- layer hooks (repro.analysis.hooks.HB) ---------------------------
    def on_send(self, dst_site: str) -> None:
        """A message entered ``Network.send``/``send_batch``."""
        src = self.current.site or "client"
        key = (src, dst_site)
        self.network_matrix[key] = self.network_matrix.get(key, 0) + 1

    def name_for(self, obj: Any, prefix: str) -> str:
        """A stable per-instance cell name (``prefix#N`` in first-access
        order, which is deterministic under a fixed seed)."""
        name = self._obj_names.get(obj)
        if name is None:
            n = self._name_counters.get(prefix, 0) + 1
            self._name_counters[prefix] = n
            name = f"{prefix}#{n}"
            self._obj_names[obj] = name
        return name

    def read(self, site: str, name: str, detail: str = "") -> None:
        self._access((site, name), False, detail)

    def write(self, site: str, name: str, detail: str = "") -> None:
        self._access((site, name), True, detail)

    # -- cells and races -------------------------------------------------
    def _stack(self) -> tuple[str, ...]:
        out: list[str] = []
        f = sys._getframe(3)  # skip _stack/_access/read|write
        while f is not None and len(out) < self.stack_depth:
            code = f.f_code
            short = _short_path(code.co_filename)
            if "/" in short:  # keep only project frames
                out.append(f"{short}:{f.f_lineno}:{code.co_name}")
            f = f.f_back
        return tuple(out)

    def _access(self, cell: Cell, write: bool, detail: str) -> None:
        cur = self.current
        if cur.cid is None:
            cur.cid = self._next_cid
            self._next_cid += 1
        stats = self.cell_stats.get(cell)
        if stats is None:
            stats = self.cell_stats[cell] = CellStats()
        if write:
            stats.writes += 1
        else:
            stats.reads += 1
        accessor = cur.site or "client"
        stats.accessors.add(accessor)
        owner = cell[0]
        if owner in self.sites:
            key = (accessor, owner)
            self.direct_matrix[key] = self.direct_matrix.get(key, 0) + 1
        acc = _Access(write, cur.cid, cur.count, cur.label, cur.site,
                      detail, self._stack())
        bucket = self._accesses.get(cell)
        if bucket is None:
            self._accesses[cell] = [acc]
            return
        vc_get = cur.vc.get
        for prior in bucket:
            if not (write or prior.write):
                continue
            if prior.cid == cur.cid:
                continue
            if vc_get(prior.cid, 0) >= prior.count:
                continue  # prior happens-before current
            race = Race(cell, self._tick_time or 0.0, prior, acc)
            if race.key not in self._race_keys:
                self._race_keys.add(race.key)
                self.races.append(race)
        bucket.append(acc)

    # -- the instrumented dispatch loop ----------------------------------
    def _tick(self, when: float) -> None:
        self._tick_time = when
        self._accesses.clear()
        self._event_clocks.clear()
        self._spawn_clocks.clear()

    def _invoke(self, cb: Any, event: Any,
                clock: dict[int, int] | None,
                extra: dict[int, int] | None) -> None:
        bound_to = getattr(cb, "__self__", None)
        if isinstance(bound_to, Process):
            ctx = self._proc_ctx(bound_to)
        elif bound_to is not None:
            # Persistent propagator (AllOf._on_child and kin): one
            # context per composite so joins accumulate across children.
            ctx = self._obj_ctxs.get(bound_to)
            if ctx is None:
                ctx = _Ctx(type(bound_to).__name__, self.current.site)
                self._obj_ctxs[bound_to] = ctx
        else:
            ctx = _Ctx(getattr(cb, "__qualname__", "callback"),
                       self.current.site)
        self._activate(ctx, clock, extra)
        cb(event)

    def _step(self, env: Any) -> None:
        entry = heappop(env._queue)
        when = entry[0]
        if when < env._now:
            raise SimulationError("event queue time went backwards")
        if when != self._tick_time:
            self._tick(when)
        env._now = when
        item = entry[3]
        cbs = item.callbacks
        if cbs is None:
            kind = type(item)
            if kind is _Resume:
                proc = item.process
                if proc is not None:
                    ev = item.event
                    if ev is _INIT:
                        clock = self._spawn_clocks.pop(proc, None)
                        extra = None
                    else:
                        clock = self._event_clocks.get(ev)
                        extra = getattr(ev, "_hb_extra", None)
                    self._activate(self._proc_ctx(proc), clock, extra)
                    proc._resume(ev)
            elif kind is _Callback:
                clock = self._cb_clocks.pop(item, None)
                ctx = _Ctx(getattr(item.fn, "__qualname__", "call_later"),
                           None)
                self._activate(ctx, clock)
                item.fn(item.arg)
            else:  # pragma: no cover - unknown processed-marker item
                item._run_callbacks()
        else:
            item.callbacks = None
            clock = self._event_clocks.get(item)
            extra = getattr(item, "_hb_extra", None)
            if type(cbs) is list:
                for cb in cbs:
                    self._invoke(cb, item, clock, extra)
            elif cbs is not _NO_WAITERS:
                self._invoke(cbs, item, clock, extra)

    def step(self, env: Any) -> None:
        """One-event dispatch, delegated from ``Environment.step``."""
        if not env._queue:
            raise SimulationError("step() on an empty event queue")
        self._step(env)
        env._active_process = None
        self.current = self._external

    def run_loop(self, env: Any, stop: Event | None, horizon: float) -> None:
        """Instrumented dispatch loop, delegated from ``Environment.run``.

        The plain loop's stop rule — queue empty, next entry past
        *horizon*, or *stop* processed — over :meth:`_step`, so the
        dispatch order is the same, with clock propagation around every
        callback.  ``Environment.run`` checks its argument and settles
        the outcome for both loops.
        """
        queue = env._queue
        try:
            while (queue and (stop is None or stop.callbacks is not None)
                   and queue[0][0] <= horizon):
                self._step(env)
        finally:
            self.current = self._external

    # -- report accessors ------------------------------------------------
    def unsuppressed_races(self) -> list[Race]:
        return [r for r in self.races if not r.suppressed]

    def isolation_violations(self) -> list[tuple[str, str, int]]:
        """Direct accesses whose accessor is a *site* other than the
        owner — the pairs that would break a by-site sharding."""
        return sorted((src, dst, n)
                      for (src, dst), n in self.direct_matrix.items()
                      if src != dst and src in self.sites)
