"""Targeted Application Controller behaviours (simulated backend)."""

from collections import Counter

import numpy as np
import pytest

from repro import VDCE, ATM_OC3, HostSpec
from repro.net import EXECUTION_REQUEST
from repro.obs import Observability
from repro.runtime.control.app_controller import (
    MONITOR_INTERVAL_S,
    PARALLEL_OCCUPY,
)
from repro.runtime.control.site_manager import ExecutionState
from repro.simcore import Environment
from repro.tasklib import (
    LibraryRegistry,
    TaskDefinition,
    TaskLibrary,
    TaskSignature,
    build_matrix_library,
    standard_registry,
)
from repro.util.errors import ExecutionError
from repro.workloads import linear_solver_graph, quiet_testbed
from tests.chaos.test_digest_lock import run_rescheduling


def small_vdce(registry=None, seed=61):
    v = VDCE(seed=seed, registry=registry or standard_registry(),
             obs=Observability())
    v.add_site("syracuse")
    v.add_site("rome")
    v.connect_sites("syracuse", "rome", ATM_OC3)
    for i in range(3):
        v.add_host("syracuse", HostSpec(name=f"h{i}", memory_mb=256))
        v.add_host("rome", HostSpec(name=f"h{i}", memory_mb=256))
    v.start()
    return v


def solo_entry(**extra):
    """One exit task for rome/h1 whose inputs travel with the request."""
    entry = {
        "node_id": "solo", "task_name": "matrix-inverse",
        "site": "rome", "hosts": ["rome/h1"], "processors": 1,
        "predicted_time_s": 1.0, "input_size": 10.0,
        "params": {}, "is_exit": True, "in_links": [], "out_links": [],
        "forward_inputs": {"matrix": np.eye(3) * 2.0},
    }
    entry.update(extra)
    return entry


def record_spawns(monkeypatch):
    """The names passed to every ``Environment.process`` call from now
    on, in call order."""
    names = []
    spawn = Environment.process

    def counting(env, gen, name=None):
        names.append(name)
        return spawn(env, gen, name=name)

    monkeypatch.setattr(Environment, "process", counting)
    return names


def fan_out(k):
    """*k* out-links from ``solo`` to consumers on syracuse's hosts."""
    return [{"dst_node": f"sink{i}", "dst_port": "matrix",
             "src_port": "inverse", "dst_host": f"syracuse/h{i}",
             "size_bytes": 800.0} for i in range(k)]


def push_request(v, entry, immediate=True):
    """Send *entry* to its host as an ``immediate`` execution request
    from syracuse's Site Manager, registering a matching execution state
    so the completion lands; returns that state.  With *immediate*
    false the request is an allocation: the host sets up its channels
    and acks, and the state sends the start signal."""
    sm = v.site_managers["syracuse"]
    host = entry["hosts"][0]
    state = ExecutionState(execution_id="exec-manual",
                           application="manual",
                           expected_acks=set() if immediate else {host},
                           controllers=set() if immediate
                           else {f"{host}/appctl"},
                           finished=v.env.event(), total_tasks=1)
    sm._executions["exec-manual"] = state
    v.network.send(sm.address, f"{host}/appctl",
                   EXECUTION_REQUEST,
                   payload={"application": "manual",
                            "execution_id": "exec-manual",
                            "entries": [entry],
                            "coordinator": sm.address,
                            "immediate": immediate})
    return state


class TestParallelParticipants:
    def test_participants_occupied_during_parallel_task(self):
        v = small_vdce()
        g = linear_solver_graph(v.registry, n=150, parallel_lu=True)
        process, run = v.submit(g, "syracuse", k_remote_sites=0)
        while run.table is None:
            v.env.run(until=v.now + 0.5)
        lu_hosts = run.table.get("lu").hosts
        assert len(lu_hosts) == 2
        participant = v.world.host(lu_hosts[1])
        # sample the participant's activity while lu should be running
        busy_samples = []

        def sampler(env):
            for _ in range(400):
                yield env.timeout(0.05)
                busy_samples.append(participant.running_tasks)

        v.env.process(sampler(v.env))
        deadline = v.now + 600
        while not process.triggered and v.now < deadline:
            v.env.run(until=v.now + 5.0)
        assert run.status == "completed"
        assert max(busy_samples) >= 1  # the occupy message held it busy
        assert participant.running_tasks == 0  # and released it


class TestCompletionReports:
    def test_dedicated_elapsed_factors_out_load(self):
        v = small_vdce()
        # put known static load on every host so slowdown is deterministic
        for host in v.world.all_hosts():
            host.true_load = 1.0
        g = linear_solver_graph(v.registry, n=60)
        run = v.run_application(g, "syracuse", k_remote_sites=0,
                                max_sim_time_s=3600)
        assert run.status == "completed"
        for nid, payload in run.completions.items():
            entry = run.table.get(nid)
            if entry.processors > 1:
                continue
            # elapsed ~ dedicated * (1 + load [+ own task]); at least 2x
            assert payload["elapsed_s"] > payload["dedicated_elapsed_s"] \
                * 1.9

    def test_weights_refined_toward_truth(self):
        v = small_vdce()
        g = linear_solver_graph(v.registry, n=60)
        run = v.run_application(g, "syracuse", k_remote_sites=0,
                                max_sim_time_s=3600)
        tp = v.repositories["syracuse"].task_performance
        for nid, payload in run.completions.items():
            host = payload["host"]
            d = v.registry.resolve(payload["task_name"])
            truth = v.model.true_weight(d, v.world.host(host))
            got = tp.weight(payload["task_name"], host, default=None)
            assert got == pytest.approx(truth, rel=0.05)


class TestNumericErrorHandling:
    def make_registry(self):
        def exploding(inputs, params):
            raise ExecutionError("synthetic numeric failure")

        lib = TaskLibrary("faulty")
        lib.add(TaskDefinition(
            name="explode", library="faulty",
            description="raises ExecutionError",
            signature=TaskSignature(inputs=("matrix",), outputs=("out",)),
            base_time_s=0.1, base_size=100, complexity="constant",
            impl=exploding))
        reg = LibraryRegistry()
        reg.add_library(lib)
        reg.add_library(build_matrix_library())
        return reg

    def test_error_intercepted_run_completes(self):
        """Paper: the runtime 'intercepts the error messages generated' —
        a numeric failure yields None downstream, not a hang."""
        from repro.afg import GraphBuilder
        v = small_vdce(registry=self.make_registry())
        b = GraphBuilder(v.registry, name="faulty-app")
        b.task("matrix-generate", "g", input_size=20, params={"n": 20})
        b.task("explode", "boom", input_size=20)
        b.link("g", "boom", dst_port="matrix")
        run = v.run_application(b.build(), "syracuse", k_remote_sites=0,
                                max_sim_time_s=600)
        assert run.status == "completed"  # timing-wise the task "ran"
        assert run.completions["boom"]["outputs"]["out"] is None
        assert v.tracer.count("task-numeric-error") == 1

    #: (feeding chain, failing task, its params): a kernel that raises
    #: something other than ExecutionError, or would compute NaNs
    #: from a non-finite parameter
    KERNEL_FAULTS = {
        "track-filter-dt-zero": (
            ("radar-scan",), "track-filter", {"dt": 0.0}),
        "track-filter-dt-nan": (
            ("radar-scan",), "track-filter", {"dt": float("nan")}),
        "lowpass-sample-rate-zero": (
            ("signal-generate", "fft-1d"), "lowpass-filter",
            {"sample_rate": 0.0}),
        "lowpass-cutoff-nan": (
            ("signal-generate", "fft-1d"), "lowpass-filter",
            {"cutoff_hz": float("nan")}),
        "radar-scan-negative-noise": ((), "radar-scan", {"noise": -1.0}),
        "signal-generate-negative-n": ((), "signal-generate", {"n": -1}),
    }

    @pytest.mark.parametrize("case", sorted(KERNEL_FAULTS))
    def test_kernel_failure_is_intercepted(self, case):
        from repro.afg import GraphBuilder
        feeders, task, params = self.KERNEL_FAULTS[case]
        v = small_vdce()
        b = GraphBuilder(v.registry, name=case)
        chain = [b.task(name, f"n{i}", input_size=16)
                 for i, name in enumerate(feeders)]
        chain.append(b.task(task, "faulty", input_size=16, params=params))
        b.chain(*chain)
        run = v.run_application(b.build(), "syracuse", k_remote_sites=0,
                                max_sim_time_s=300)
        assert run.status == "completed"
        outputs = run.completions["faulty"]["outputs"]
        assert set(outputs) == set(v.registry.resolve(task).signature.outputs)
        assert all(value is None for value in outputs.values())
        assert v.tracer.count("task-numeric-error") == 1
        assert v.env.failed_processes == []


class TestImmediateRescheduledExecution:
    def test_forwarded_inputs_skip_channel_setup(self):
        """A rescheduled entry executes with forwarded inputs and reports
        completion without a second handshake."""
        v = small_vdce()
        state = push_request(v, solo_entry())
        deadline = v.now + 120
        while not state.finished.triggered and v.now < deadline:
            v.env.run(until=v.now + 1.0)
        assert state.finished.triggered
        report = state.completed_tasks["solo"]
        np.testing.assert_allclose(report["outputs"]["inverse"],
                                   np.eye(3) * 0.5)
        # no channel handshakes happened for this immediate execution
        assert v.network.stats.by_kind.get("channel-setup", 0) == 0


class TestOneProcessPerTaskRun:
    """The controller spawns a process only where a task waits."""

    @pytest.fixture
    def spawned(self, monkeypatch):
        """Names of the processes started after a quiet 10 s warm-up
        (the daemons' own loops are long-lived, so the window spawns
        nothing by itself)."""
        names = record_spawns(monkeypatch)
        v = small_vdce()
        v.env.run(until=10.0)
        names.clear()
        return v, names

    def test_immediate_push_spawns_only_the_task_run(self, spawned):
        v, names = spawned
        state = push_request(v, solo_entry())
        while not state.finished.triggered:
            v.env.run(until=v.now + 1.0)
        # no request handler, and no overload watcher for a task that
        # ran to completion
        assert names == ["retask:solo@rome/h1"]

    def test_overloaded_push_bounces_without_a_process(self, spawned):
        """A pushed task with its inputs on an overloaded host goes back
        to the Group Manager from the inbox loop itself."""
        v, names = spawned
        v.world.host("rome/h1").true_load = \
            v.reschedule_policy.load_threshold + 1.0
        push_request(v, solo_entry(out_links=fan_out(2), is_exit=False))
        v.env.run(until=15.0)
        controller = v.app_controllers["rome/h1"]
        assert v.tracer.count("net:reschedule-request",
                              actor="rome/h1/appctl") == 1
        assert controller._node_status[("exec-manual", "solo")] == "aborted"
        assert names == []

    @pytest.mark.parametrize("overloaded, forced", [(False, False),
                                                    (True, True)],
                             ids=["idle", "forced"])
    def test_started_push_ships_outputs_in_its_own_process(
            self, spawned, overloaded, forced):
        """A pushed task that starts runs in one process, which also
        ships its outputs: no process per out-link."""
        v, names = spawned
        if overloaded:
            v.world.host("rome/h1").true_load = \
                v.reschedule_policy.load_threshold + 1.0
        state = push_request(v, solo_entry(out_links=fan_out(2),
                                             is_exit=False, forced=forced))
        while not state.finished.triggered:
            v.env.run(until=v.now + 1.0)
        assert v.tracer.count("task-finish", actor="rome/h1") == 1
        assert v.tracer.count("net:task-data", actor="rome/h1/datamgr") == 2
        assert names == ["retask:solo@rome/h1"]

    def test_allocation_sets_up_channels_without_a_process(self, spawned):
        """An allocation's request handler handshakes its channels
        inline: one process per cross-host handshake, none around
        them, and none per shipped output."""
        v, names = spawned
        state = push_request(v, solo_entry(out_links=fan_out(2),
                                             is_exit=False),
                               immediate=False)
        while not state.finished.triggered:
            v.env.run(until=v.now + 1.0)
        assert v.tracer.count("net:task-data", actor="rome/h1/datamgr") == 2
        assert names == ["ac-exec:rome/h1/appctl",
                         "dm:setup:exec-manual:sink0:matrix",
                         "dm:setup:exec-manual:sink1:matrix",
                         "task:solo@rome/h1"]

    def test_parallel_occupy_spawns_nothing(self, spawned):
        v, names = spawned
        participant = v.world.host("rome/h2")
        v.network.send("rome/h1/appctl", "rome/h2/appctl", PARALLEL_OCCUPY,
                       payload={"duration": 2.0, "node_id": "lu"},
                       size_bytes=48)
        v.env.run(until=11.0)
        assert participant.running_tasks == 1
        v.env.run(until=13.0)
        assert participant.running_tasks == 0
        assert names == []


def spawn_prefix(name):
    """``dm:setup`` for a channel handshake, else the part of a process
    name before its first colon."""
    if name.startswith("dm:setup:"):
        return "dm:setup"
    return name.split(":", 1)[0]


#: processes the ``reschedule`` digest scenario (seed 101) spawns, by
#: name prefix: one run per allocated task, one per re-issued task
#: that starts (the other reschedules bounce inside the inbox loop),
#: one request handler (the whole allocation lands on one host, so no
#: channel needs a handshake), and the daemons
RESCHEDULE_SPAWNS = {
    "task": 123, "retask": 116, "ac-exec": 1, "dm:setup": 0, "submit": 1,
    "ac": 16, "dm": 16, "mon": 16, "mon-echo": 16, "gm": 4, "gm-echo": 4,
    "sm": 2, "load": 1, "fault": 1,
}


class TestRunSpawns:
    def test_reschedule_scenario_spawns_the_recorded_processes(
            self, monkeypatch):
        names = record_spawns(monkeypatch)
        run_rescheduling(101)
        assert None not in names
        counts = Counter(map(spawn_prefix, names))
        assert {p: counts[p] for p in RESCHEDULE_SPAWNS} == RESCHEDULE_SPAWNS
        assert len(names) == sum(RESCHEDULE_SPAWNS.values())


class TestOverloadCheckSameTick:
    """A task ending on an overload-check instant completes first."""

    @pytest.mark.parametrize("duration, terminated", [
        (MONITOR_INTERVAL_S, False),
        (3 * MONITOR_INTERVAL_S, True),
    ])
    def test_check_runs_after_a_task_ending_then(self, monkeypatch,
                                                 duration, terminated):
        v = small_vdce()
        monkeypatch.setattr(v.model, "duration",
                            lambda *args, **kwargs: duration)
        host = v.world.host("rome/h1")
        host.true_load = v.reschedule_policy.load_threshold + 1.0
        # forced: skip the pre-start check, so only the running-task
        # check can terminate it
        push_request(v, solo_entry(forced=True))
        v.env.run(until=1.0)
        (start,) = v.tracer.query(category="task-start")
        check_at = start.time + MONITOR_INTERVAL_S
        v.env.run(until=check_at)
        finished = [r.time for r in v.tracer.query(category="task-finish")]
        stopped = [r.time
                   for r in v.tracer.query(category="task-terminated")]
        if terminated:
            assert (finished, stopped) == ([], [check_at])
        else:
            assert (finished, stopped) == ([check_at], [])
