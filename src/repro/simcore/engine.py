"""A deterministic discrete-event simulation kernel.

This is the substrate substituting for the paper's physical NYNET/campus
testbed: monitors, group managers, schedulers, data-manager proxies and
task executions all run as cooperating generator-based processes over a
simulated clock.  The kernel is a compact subset of the SimPy programming
model (events, processes, timeouts, interrupts) implemented from scratch
so the reproduction has no external runtime dependencies.

Determinism: events scheduled for the same simulated time are executed in
schedule order (a monotone sequence number breaks ties), so a fixed seed
yields an identical trace on every run.

Every class here carries ``__slots__`` and the hot paths (timeout
construction, process resume, the run loop) avoid property dispatch and
intermediate allocations; see docs/performance.md for the measured
effect.  Queue entries are ``(time, priority, seq, item)`` tuples and the
unique ``seq`` guarantees the item itself is never compared, so the queue
can hold both events and the lighter :class:`_Resume` records.

The ``callbacks`` attribute is polymorphic to keep the dominant
"one process waits on one event" pattern allocation-free:

* ``_NO_WAITERS`` — fresh event, nothing attached (no list built yet);
* a bound ``Process._resume`` method — exactly one process waits
  (stored directly, no list, no append, and the run loop dispatches it
  with a bare call);
* a ``list`` — the general case (multiple waiters / plain callbacks);
* ``None`` — the event has been processed.

All transitions go through :func:`_attach` or the run loop; nothing
outside this module touches ``callbacks``.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from heapq import heappop, heappush
from itertools import count
from typing import Any

from repro.util.errors import SimulationError

#: Sentinel priority bands: urgent events (process resumption) run before
#: normal events scheduled for the same instant.
URGENT = 0
NORMAL = 1

_INF = float("inf")


class _NoWaiters:
    """Singleton marking an event nobody has attached to yet.

    Distinct from ``None`` (which means *processed*) and from an empty
    list (which would cost an allocation per event).
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<no waiters>"


_NO_WAITERS = _NoWaiters()


def _attach(event: "Event", callback: Callable[["Event"], None]) -> None:
    """Attach *callback* to a not-yet-processed event, upgrading the
    ``callbacks`` representation as needed (see module docstring)."""
    cbs = event.callbacks
    if type(cbs) is list:
        cbs.append(callback)
    elif cbs is _NO_WAITERS:
        event.callbacks = [callback]
    else:  # a single waiter's bound resume: expand to the general form
        event.callbacks = [cbs, callback]


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*, is *triggered* (scheduled with a value or an
    exception), and finally *processed* once its callbacks have run.
    Processes wait on events by yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_ok")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Any = _NO_WAITERS
        self._value: Any = None
        self._exception: BaseException | None = None
        self._ok: bool | None = None

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event value accessed before trigger")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event value accessed before trigger")
        if not self._ok:
            raise SimulationError("event failed; no value") from self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        return self._exception

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Call ``callback(self)`` when the event is processed, after the
        waiters attached before it: fire-and-forget work on an outcome,
        without a process to wait for it."""
        if self.callbacks is None:
            raise SimulationError("event already processed")
        _attach(self, callback)

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value* (now)."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        env = self.env
        heappush(env._queue, (env._now, NORMAL, next(env._seq), self))
        hb = env._hb
        if hb is not None:
            hb.on_trigger(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with *exception* (now)."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._exception = exception
        env = self.env
        heappush(env._queue, (env._now, NORMAL, next(env._seq), self))
        hb = env._hb
        if hb is not None:
            hb.on_trigger(self)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if type(callbacks) is list:
            for cb in callbacks:
                cb(self)
        elif callbacks is not _NO_WAITERS and callbacks is not None:
            callbacks(self)  # a single waiter's bound resume

    def _abandon(self) -> None:
        """Hook run when the last waiting process is interrupted away;
        an event holding a queue place (a store get) gives it up."""


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Prefer :meth:`Environment.timeout`, which builds the same object
    through a fast path that skips this constructor.  The delay is not
    retained on the instance — the heap entry carries the absolute fire
    time, and storing it would cost the hottest allocation site a write
    nothing ever reads back.
    """

    __slots__ = ()

    #: Class-level state shadowing the parent's slots: a timeout is born
    #: triggered and can never fail, so no instance ever stores either
    #: field (``succeed``/``fail`` reject re-triggering before writing).
    _ok = True
    _exception = None

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # NaN-safe: NaN fails every comparison
            raise SimulationError(
                f"timeout delay must be >= 0, got {delay}")
        self.env = env
        self.callbacks = _NO_WAITERS
        self._value = value
        heappush(env._queue, (env._now + delay, NORMAL, next(env._seq), self))


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The Application Controller uses this to terminate an over-loaded task
    execution before issuing a rescheduling request (paper section 2.3.1).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _Resume:
    """Queue entry resuming a process from an already-processed event.

    Replaces the relay-``Event`` allocation the kernel used to make for
    this case: it carries no callback list and no state of its own, just
    the process to resume and the (processed) event whose outcome to
    deliver.  ``process`` is set to ``None`` to cancel the pending resume
    (the interrupt path), mirroring callback removal on a real event.
    """

    __slots__ = ("process", "event")

    #: class-level marker: lets the run loop tell a resume record from an
    #: event (whose ``callbacks`` is a list while queued) without a type
    #: check, and reads as "already processed" everywhere else.
    callbacks = None

    def __init__(self, process: "Process", event: "Event") -> None:
        self.process = process
        self.event = event

    def _run_callbacks(self) -> None:
        process = self.process
        if process is not None:
            process._resume(self.event)


class _Callback:
    """Queue entry invoking a plain function at its scheduled time.

    The batched-delivery primitive behind :meth:`Environment.call_later`:
    one heap entry carries one function and one argument (typically a
    list the caller keeps appending to until the entry fires), so a
    same-tick fan-out of N messages costs one push + one callback loop
    instead of N process bootstraps.  Like :class:`_Resume` it rides the
    run loop's ``callbacks is None`` path and never compares against
    other queue items (the seq number is always the tie-break).
    """

    __slots__ = ("fn", "arg")

    #: class-level marker, same trick as :class:`_Resume`: the run loop
    #: dispatches ``callbacks is None`` items via ``_run_callbacks``.
    callbacks = None

    def __init__(self, fn: Callable[[Any], None], arg: Any) -> None:
        self.fn = fn
        self.arg = arg

    def _run_callbacks(self) -> None:
        self.fn(self.arg)


class _InitEvent:
    """The shared bootstrap outcome delivered to every new process."""

    __slots__ = ()
    _ok = True
    _value = None
    _exception = None


_INIT = _InitEvent()


class Process(Event):
    """A generator-based simulated process.

    The generator yields :class:`Event` instances; the process resumes when
    the yielded event is processed, receiving its value (or the exception
    if the event failed).  The process itself is an event that triggers
    when the generator returns, so processes can wait on one another.
    """

    __slots__ = ("gen", "name", "_target", "_send", "_throw", "_resume_cb")

    def __init__(self, env: "Environment", gen: Generator[Event, Any, Any],
                 name: str | None = None) -> None:
        if not isinstance(gen, Generator):
            raise SimulationError(
                "Process requires a generator (did you call the function?)")
        super().__init__(env)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Per-resume allocations cached once: the generator's send/throw
        # and this process's own resume callback (a fresh bound method
        # per yield would be the kernel's largest remaining allocation).
        self._send = gen.send
        self._throw = gen.throw
        self._resume_cb = self._resume
        # Bootstrap: resume the generator as soon as the env runs.  It is
        # the first pending resume, so an interrupt before it runs
        # cancels it and the body never starts.
        boot = _Resume(self, _INIT)
        self._target: Event | _Resume | None = boot
        heappush(env._queue, (env._now, URGENT, next(env._seq), boot))
        hb = env._hb
        if hb is not None:
            hb.on_spawn(self)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._ok is not None:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        target = self._target
        if target is not None:
            if type(target) is _Resume:
                target.process = None
            else:
                cbs = target.callbacks
                if cbs is self._resume_cb:
                    target.callbacks = _NO_WAITERS
                    target._abandon()
                elif type(cbs) is list:
                    try:
                        cbs.remove(self._resume_cb)
                    except ValueError:
                        pass
                    if not cbs:
                        target._abandon()
        self._target = None
        env = self.env
        hit = Event(env)
        hit._ok = False
        hit._exception = Interrupt(cause)
        hit.callbacks = self._resume_cb
        heappush(env._queue, (env._now, URGENT, next(env._seq), hit))
        hb = env._hb
        if hb is not None:
            hb.on_trigger(hit)

    def _resume(self, event: Event, _mark=_NO_WAITERS) -> None:
        # ``env._active_process`` is set here and cleared lazily when the
        # run loop exits (run()/step()): between callbacks nothing
        # executes that could observe it, and skipping the per-resume
        # clear saves a store on the kernel's hottest path.
        self.env._active_process = self
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                target = self._throw(event._exception)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            self._finalize()
            return
        except Interrupt:
            # Uncaught interrupt terminates the process "successfully
            # cancelled": the interruptor asked for termination.
            self._ok = True
            self._value = None
            self._finalize()
            return
        except Exception as exc:
            self._ok = False
            self._exception = exc
            # Record the crash so silent daemon deaths are diagnosable:
            # a failed process with no waiter would otherwise vanish.
            env = self.env
            env.failed_processes.append((env._now, self.name, exc))
            self._finalize()
            return

        try:
            callbacks = target.callbacks
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, "
                "expected an Event") from None
        if callbacks is _mark:
            # Sole waiter — the dominant pattern: store the cached bound
            # resume directly, no list, no append.
            target.callbacks = self._resume_cb
            self._target = target
        elif callbacks is None:
            # Already processed: resume directly (next tick, urgent)
            # through the queue — no relay Event allocation.
            resume = _Resume(self, target)
            env = self.env
            heappush(env._queue, (env._now, URGENT, next(env._seq),
                                  resume))
            self._target = resume
        elif type(callbacks) is list:
            callbacks.append(self._resume_cb)
            self._target = target
        else:  # one process already waits: expand to the general form
            target.callbacks = [callbacks, self._resume_cb]
            self._target = target

    def _finalize(self) -> None:
        """Schedule the terminated process's own event and drop the cached
        bound methods (``_resume_cb`` forms a reference cycle with the
        process; clearing it restores prompt refcount collection)."""
        env = self.env
        self._target = None
        self._send = self._throw = self._resume_cb = None  # type: ignore[assignment]
        heappush(env._queue, (env._now, NORMAL, next(env._seq), self))
        hb = env._hb
        if hb is not None:
            hb.on_trigger(self)


class AllOf(Event):
    """Triggers when every child event has triggered successfully.

    Value is the list of child values in the order given.  Fails with the
    first child failure.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: list[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed([])
            return
        for ev in self._events:
            if ev.callbacks is None:
                self._on_child(ev)
            else:
                _attach(ev, self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._ok is not None:
            return
        if not ev._ok:
            self.fail(ev._exception or SimulationError("child event failed"))
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e._value for e in self._events])


class AnyOf(Event):
    """Triggers when the first child event triggers; value is ``(index, value)``."""

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: list[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf requires at least one event")
        for i, ev in enumerate(self._events):
            cb = self._make_cb(i)
            if ev.callbacks is None:
                cb(ev)
            else:
                _attach(ev, cb)

    def _make_cb(self, index: int):
        def _cb(ev: Event) -> None:
            if self._ok is not None:
                return
            if ev._ok:
                self.succeed((index, ev._value))
            else:
                self.fail(ev._exception or SimulationError("child event failed"))
        return _cb


def _compile_timeout():
    """Build :meth:`Environment.timeout` with its hot globals bound as
    closure cells (``LOAD_DEREF`` beats ``LOAD_GLOBAL`` on the kernel's
    single hottest allocation site)."""
    _cls = Timeout
    _new = Timeout.__new__
    _push = heappush
    _mark = _NO_WAITERS
    _next = next

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing after *delay* simulated seconds.

        This is the kernel's hottest allocation site (every simulated
        wait passes through it), so the object is built directly instead
        of through ``Timeout.__init__``'s chained constructors (``_ok``
        and ``_exception`` are class-level on :class:`Timeout`).
        """
        if not delay >= 0:  # NaN-safe: NaN fails every comparison
            raise SimulationError(
                f"timeout delay must be >= 0, got {delay}")
        ev = _new(_cls)
        ev.env = self
        ev.callbacks = _mark
        ev._value = value
        # 1 == NORMAL priority
        _push(self._queue, (self._now + delay, 1, _next(self._seq), ev))
        return ev

    return timeout


class Environment:
    """The simulation environment: clock + event queue + process factory."""

    __slots__ = ("_now", "_queue", "_seq", "_active_process",
                 "failed_processes", "_hb", "_walk_clock")

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event | _Resume]] = []
        self._seq = count(1)
        self._active_process: Process | None = None
        #: Happens-before recorder (``repro.analysis``), attached only
        #: while a sanitizer session is active.  ``None`` keeps every
        #: kernel hook at a single attribute load + identity check.
        self._hb: Any = None
        #: (time, process name, exception) for every process that died on
        #: an unhandled exception — inspect after a run to catch silent
        #: daemon crashes.
        self.failed_processes: list[tuple[float, str, Exception]] = []
        #: The random-walk load clock (``repro.resources.loads``) that a
        #: walk attached next may join; kept here so it lives and dies
        #: with this simulation.
        self._walk_clock: Any = None

    @property
    def now(self) -> float:
        """Current simulated time (seconds by library convention)."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        return self._active_process

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event (trigger with succeed/fail)."""
        return Event(self)

    timeout = _compile_timeout()

    def process(self, gen: Generator[Event, Any, Any],
                name: str | None = None) -> Process:
        """Launch a generator as a simulated process."""
        return Process(self, gen, name=name)

    def all_of(self, events: list[Event]) -> AllOf:
        """An event firing when every child has fired."""
        return AllOf(self, events)

    def any_of(self, events: list[Event]) -> AnyOf:
        """An event firing with the first child that fires."""
        return AnyOf(self, events)

    def call_later(self, delay: float, fn: Callable[[Any], None],
                   arg: Any = None) -> None:
        """Invoke ``fn(arg)`` after *delay* simulated seconds.

        A lighter alternative to spawning a process for fire-and-forget
        work: one heap entry, no generator, no :class:`Event` state.  The
        network's batched delivery path passes a shared list as *arg*
        and keeps appending to it until the entry fires — that is what
        turns an N-way same-tick fan-out into a single queue entry.

        The callback runs at NORMAL priority in seq order, exactly where
        an event triggered at the same instant would run; it must not
        assume an active process (``env.active_process`` is ``None``).
        """
        if not delay >= 0:  # NaN-safe: NaN fails every comparison
            raise SimulationError(
                f"call_later delay must be >= 0, got {delay}")
        entry = _Callback(fn, arg)
        heappush(self._queue, (self._now + delay, NORMAL, next(self._seq),
                               entry))
        hb = self._hb
        if hb is not None:
            hb.on_schedule(entry)

    # -- scheduling -------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when none remain."""
        return self._queue[0][0] if self._queue else _INF

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        hb = self._hb
        if hb is not None:
            hb.step(self)
            return
        when, _prio, _seq, event = heappop(self._queue)
        if when < self._now:
            raise SimulationError("event queue time went backwards")
        self._now = when
        event._run_callbacks()
        self._active_process = None

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, *until* time passes, or event fires.

        Returns the event's value when *until* is an :class:`Event`, and
        raises :class:`SimulationError` when the queue empties before
        that event is processed.  A time horizon must be at or after
        :attr:`now`; the clock ends on it.

        One loop serves all three forms: a drain is a run to an infinite
        horizon, and an event target also ends the loop once processed
        (at once if it already was).  The loop dispatches queue entries
        inline rather than through :meth:`Event._run_callbacks` (events
        in the queue always hold a live callback list; a ``None`` marks
        the lighter resume records), so per-event cost is one pop, one
        horizon comparison, one ``stop is None`` test (an event target
        adds the check that it is not yet processed), one time store,
        and the callbacks themselves.
        """
        if isinstance(until, Event):
            stop: Event | None = until
            horizon = _INF
        else:
            stop = None
            horizon = _INF if until is None else float(until)
            if not horizon >= self._now:  # NaN-safe: NaN fails it too
                raise SimulationError(f"run(until={horizon}) is not at or "
                                      f"after now={self._now}")
        try:
            hb = self._hb
            if hb is not None:
                # Sanitizer attached: the recorder's instrumented loop
                # (same dispatch order, plus clock propagation).
                hb.run_loop(self, stop, horizon)
            else:
                queue = self._queue
                pop = heappop
                mark = _NO_WAITERS
                while queue and (stop is None or stop.callbacks is not None):
                    entry = pop(queue)
                    when = entry[0]
                    if when > horizon:
                        heappush(queue, entry)
                        break
                    item = entry[3]
                    self._now = when
                    cbs = item.callbacks
                    if cbs is None:
                        item._run_callbacks()
                    else:
                        item.callbacks = None
                        try:
                            cbs(item)  # sole waiter's bound resume
                        except TypeError:
                            if type(cbs) is list:
                                for cb in cbs:
                                    cb(item)
                            elif cbs is mark:
                                pass  # fired with nobody attached
                            else:
                                raise
        finally:
            self._active_process = None
        if stop is None:
            if horizon != _INF:
                self._now = horizon
            return None
        if stop.callbacks is not None:  # i.e. not yet processed
            raise SimulationError("simulation ran out of events before the "
                                  "awaited event triggered (deadlock?)")
        if stop._ok:
            return stop._value
        raise stop._exception  # type: ignore[misc]
