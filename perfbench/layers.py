"""Per-layer attribution from outside the program.

A traced replication installs wrappers around public entry points of
each VDCE layer (class attributes, restored afterwards) and keeps one
span per wrapped call in memory: name, start, end and the enclosing
span.  Nothing inside ``src/`` is edited; the untraced replications run
the program untouched.

Two kinds of span exist:

* **call spans** around entry points (``Network.send``,
  ``Tracer.record``, ``PerformancePredictor.predict`` ...), attributed
  to the layer that owns the entry point;
* **resumption spans** around every step of a simulated process and
  every ``call_later`` callback, attributed to the layer of the module
  that defined the generator or callback.  This is how daemon work
  (Application Controllers, Group Managers, membership, replication)
  is timed: per generator resumption.

A span's self time is its duration minus the time its child spans
cover; a layer's self time is the sum over its spans.  The kernel's
self time is the residual of ``Environment.run`` once every resumption
and callback it dispatched is taken out.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: Module-prefix -> layer name; the first (longest) match wins.
MODULE_LAYERS: tuple[tuple[str, str], ...] = (
    ("repro.runtime.control", "runtime.control"),
    ("repro.runtime.data", "runtime.data"),
    ("repro.simcore.trace", "trace"),
    ("repro.simcore", "simcore"),
    ("repro.net", "net"),
    ("repro.repository", "repository"),
    ("repro.prediction", "prediction"),
    ("repro.scheduling", "scheduling"),
    ("repro.afg", "afg"),
    ("repro.tasklib", "tasklib"),
    ("repro.traffic", "traffic"),
    ("repro.recovery", "recovery"),
    ("repro.federation", "federation"),
    ("repro.faults", "faults"),
    ("repro.resources", "resources"),
    ("repro.core", "core"),
    ("repro.workloads", "core"),
)

#: Every layer a traced run reports a self time for, and the metric
#: name it is reported under.  ``bench`` is the driver's own loop.
SELF_TIME_METRICS: dict[str, str] = {
    "simcore": "simcore.self_s",
    "trace": "trace.record_s",
    "net": "net.send_s",
    "repository": "repository.update_s",
    "prediction": "prediction.self_s",
    "scheduling": "scheduling.self_s",
    "afg": "afg.self_s",
    "runtime.control": "runtime.control.self_s",
    "runtime.data": "runtime.data.self_s",
    "tasklib": "tasklib.execute_s",
    "traffic": "traffic.self_s",
    "recovery": "recovery.self_s",
    "federation": "federation.self_s",
    "faults": "faults.self_s",
    "resources": "resources.self_s",
    "core": "core.self_s",
    "bench": "bench.self_s",
}


def layer_of_module(module: str) -> str:
    """The layer a module belongs to (``bench`` for anything else)."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "bench"


class SpanRecorder:
    """In-memory span store with online self-time accounting.

    Spans are kept column-wise in ``array`` buffers (32 bytes a span),
    because a traced replication records millions of them.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_self_ns: list[int] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.name_idx = array("q")
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self.counts: dict[str, int] = {}
        #: spans and counts are kept only while on (the run phase)
        self.on = False

    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.name_layer.append(layer)
            self.name_self_ns.append(0)
        return nid

    def enter(self, nid: int) -> None:
        stack = self._stack
        self.parents.append(stack[-1] if stack else -1)
        stack.append(len(self.starts))
        self.name_idx.append(nid)
        self.ends.append(0)
        self._child_ns.append(0)
        self.starts.append(time.perf_counter_ns())

    def exit(self) -> None:
        end = time.perf_counter_ns()
        idx = self._stack.pop()
        child = self._child_ns.pop()
        self.ends[idx] = end
        duration = end - self.starts[idx]
        self.name_self_ns[self.name_idx[idx]] += duration - child
        if self._child_ns:
            self._child_ns[-1] += duration

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @property
    def span_count(self) -> int:
        return len(self.starts)

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer, seconds (every layer present, maybe 0)."""
        out = {layer: 0.0 for layer in SELF_TIME_METRICS}
        for nid, ns in enumerate(self.name_self_ns):
            out[self.name_layer[nid]] += ns / 1e9
        return out

    def write(self, path: Path) -> None:
        """Write the spans out: a name table, then one line per span.

        Format (text): ``# names`` header lines ``N <id> <layer> <name>``,
        then ``<id> <name-id> <start-ns> <end-ns> <parent-id>`` rows,
        start times relative to the first span.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.starts[0] if self.starts else 0
        with path.open("w", encoding="utf-8") as fh:
            for nid, name in enumerate(self.names):
                fh.write(f"N {nid} {self.name_layer[nid]} {name}\n")
            starts, ends = self.starts, self.ends
            parents, names = self.parents, self.name_idx
            chunk: list[str] = []
            for i in range(len(starts)):
                chunk.append(f"{i} {names[i]} {starts[i] - base} "
                             f"{ends[i] - base} {parents[i]}\n")
                if len(chunk) >= 65536:
                    fh.write("".join(chunk))
                    chunk.clear()
            fh.write("".join(chunk))


# -- wrappers ------------------------------------------------------------------

def _call_span(rec: SpanRecorder, fn: Callable, name: str, layer: str,
               counter: str | None) -> Callable:
    nid = rec.name_id(name, layer)

    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        if counter is not None:
            rec.count(counter)
        rec.enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit()

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _timed_generator(rec: SpanRecorder, gen: Any, nid: int) -> Iterator:
    """Re-yield *gen*'s events, timing each of its resumptions.

    Sends, thrown exceptions (interrupts, failed events) and the return
    value pass through unchanged, so the wrapped process behaves exactly
    like the bare one.
    """
    value: Any = None
    thrown: BaseException | None = None
    while True:
        timed = rec.on
        if timed:
            rec.enter(nid)
        try:
            if thrown is None:
                target = gen.send(value)
            else:
                target = gen.throw(thrown)
        except StopIteration as stop:
            return stop.value
        finally:
            if timed:
                rec.exit()
        try:
            value = yield target
            thrown = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # re-thrown into the inner generator
            value, thrown = None, exc


def _code_name(code: Any, module: str) -> str:
    return f"{module}:{getattr(code, 'co_qualname', code.co_name)}"


class Instrumentation:
    """Install and remove the layer wrappers around one replication."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: list[tuple[type, str, Any]] = []
        self._gen_ids: dict[Any, int] = {}
        self._fn_ids: dict[Any, int] = {}

    def _patch(self, owner: type, attr: str, layer: str,
               counter: str | None = None) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, _call_span(
            self.rec, original, f"{owner.__name__}.{attr}", layer, counter))

    def _generator_nid(self, gen: Any) -> int:
        code = gen.gi_code
        nid = self._gen_ids.get(code)
        if nid is None:
            module = gen.gi_frame.f_globals.get("__name__", "?")
            nid = self.rec.name_id("resume:" + _code_name(code, module),
                                   layer_of_module(module))
            self._gen_ids[code] = nid
        return nid

    def wrap_generator(self, gen: Any, nid: int | None = None) -> Any:
        """A timed stand-in for *gen* (named like it)."""
        wrapped = _timed_generator(self.rec, gen,
                                   self._generator_nid(gen)
                                   if nid is None else nid)
        wrapped.__name__ = gen.__name__
        return wrapped

    def _callback_nid(self, fn: Any) -> int:
        func = getattr(fn, "__func__", fn)
        nid = self._fn_ids.get(func)
        if nid is None:
            module = getattr(func, "__module__", None) or "?"
            code = getattr(func, "__code__", None)
            name = (_code_name(code, module) if code is not None
                    else f"{module}:{func!r}")
            nid = self.rec.name_id("callback:" + name,
                                   layer_of_module(module))
            self._fn_ids[func] = nid
        return nid

    def install(self) -> None:
        from repro.afg.graph import ApplicationFlowGraph
        from repro.core.vdce import VDCE
        from repro.net.network import Network
        from repro.prediction.predict import PerformancePredictor
        from repro.recovery.wal import WriteAheadLog
        from repro.repository.delta import DeltaTracker
        from repro.repository.resource_perf import ResourcePerformanceDB
        from repro.runtime.control.site_manager import SiteManager
        from repro.scheduling.host_selection import HostSelector
        from repro.scheduling.rescheduling import Rescheduler
        from repro.scheduling.site_scheduler import SiteScheduler
        from repro.simcore.engine import Environment
        from repro.simcore.trace import Tracer
        from repro.tasklib.base import TaskDefinition
        from repro.traffic.templates import JobTemplate

        rec = self.rec
        self._patch(Environment, "run", "simcore")
        self._patch(Tracer, "record", "trace", "trace.records")
        self._patch(Network, "send", "net")
        self._patch(Network, "send_batch", "net")
        self._patch(ResourcePerformanceDB, "update_dynamic", "repository",
                    "repository.updates")
        self._patch(DeltaTracker, "record", "repository",
                    "repository.delta_events")
        self._patch(DeltaTracker, "events_since", "repository",
                    "repository.delta_reads")
        self._patch(PerformancePredictor, "predict", "prediction",
                    "prediction.predict_calls")
        self._patch(PerformancePredictor, "estimate", "prediction",
                    "prediction.estimate_calls")
        self._patch(PerformancePredictor, "best_host", "prediction",
                    "prediction.best_host_calls")
        self._patch(HostSelector, "select", "scheduling",
                    "scheduling.select_calls")
        self._patch(SiteScheduler, "schedule", "scheduling")
        self._patch(Rescheduler, "reschedule", "scheduling",
                    "scheduling.reschedules")
        self._patch(ApplicationFlowGraph, "validate", "afg",
                    "afg.validate_calls")
        self._patch(ApplicationFlowGraph, "topological_order", "afg",
                    "afg.topo_calls")
        self._patch(JobTemplate, "build", "afg")
        self._patch(TaskDefinition, "execute", "tasklib", "tasklib.executes")
        self._patch(VDCE, "submit", "core")
        self._patch_counter(WriteAheadLog, "append", "recovery.wal_records")
        self._patch_schedule_rounds(SiteManager)
        self._patch_kernel(Environment)

    def _patch_counter(self, owner: type, attr: str, counter: str) -> None:
        """Count calls without a span (the call is timed by its caller)."""
        rec = self.rec
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))

        def wrapper(*args, **kwargs):
            if rec.on:
                rec.count(counter)
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def _patch_schedule_rounds(self, sm_cls: type) -> None:
        """Time the Site Scheduler round, a generator run via yield-from."""
        original = sm_cls.__dict__["schedule_application"]
        self._saved.append((sm_cls, "schedule_application", original))
        rec = self.rec
        nid = rec.name_id("SiteManager.schedule_application", "scheduling")
        inst = self

        def schedule_application(self, *args, **kwargs):
            if rec.on:
                rec.count("scheduling.schedule_rounds")
            return inst.wrap_generator(original(self, *args, **kwargs), nid)

        sm_cls.schedule_application = schedule_application

    def _patch_kernel(self, env_cls: type) -> None:
        """Count kernel work; time every process step and callback."""
        rec = self.rec
        inst = self
        for attr in ("process", "call_later", "timeout"):
            self._saved.append((env_cls, attr, env_cls.__dict__[attr]))
        process = env_cls.__dict__["process"]
        call_later = env_cls.__dict__["call_later"]
        timeout = env_cls.__dict__["timeout"]

        # daemons started during set-up are wrapped too, so their
        # resumptions in the run phase are timed; counts and spans are
        # kept only while the recorder is on
        def process_wrapper(self, gen, name=None):
            if rec.on:
                rec.count("simcore.processes")
            return process(self, inst.wrap_generator(gen), name=name)

        def call_later_wrapper(self, delay, fn, arg=None):
            if rec.on:
                rec.count("simcore.call_later")
            nid = inst._callback_nid(fn)

            def timed(value, fn=fn, nid=nid):
                if not rec.on:
                    fn(value)
                    return
                rec.enter(nid)
                try:
                    fn(value)
                finally:
                    rec.exit()

            return call_later(self, delay, timed, arg)

        def timeout_wrapper(self, delay, value=None):
            if rec.on:
                rec.count("simcore.timeouts")
            return timeout(self, delay, value)

        env_cls.process = process_wrapper
        env_cls.call_later = call_later_wrapper
        env_cls.timeout = timeout_wrapper

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@contextmanager
def instrumented(rec: SpanRecorder) -> Iterator[Instrumentation]:
    """Wrappers installed for the duration of the ``with`` block."""
    inst = Instrumentation(rec)
    inst.install()
    try:
        yield inst
    finally:
        rec.on = False
        inst.uninstall()
