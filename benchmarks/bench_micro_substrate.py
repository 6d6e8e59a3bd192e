"""Micro-benchmarks of the substrates (wall-clock throughput).

Not a paper figure: these keep the reproduction honest about its own
performance — the DES engine, the message codecs, graph construction,
level computation, and the prediction function are the inner loops of
every experiment, so regressions here inflate every other benchmark.
"""

import numpy as np
import pytest

from repro.prediction import PerformancePredictor, register_tasks
from repro.repository import ResourcePerformanceDB, TaskPerformanceDB
from repro.resources import HostSpec
from repro.runtime.data.messaging import MessageCodec
from repro.scheduling import compute_levels
from repro.simcore import Environment
from repro.tasklib import standard_registry
from repro.workloads import linear_solver_graph, random_layered_graph

REGISTRY = standard_registry()


def test_engine_event_throughput(benchmark):
    """Ping-pong processes: events processed per second."""

    def run_sim():
        env = Environment()

        def ponger(env, n):
            for _ in range(n):
                yield env.timeout(1.0)

        for _ in range(10):
            env.process(ponger(env, 200))
        env.run()
        return env.now

    result = benchmark(run_sim)
    assert result == 200.0


def test_store_throughput(benchmark):
    from repro.simcore import Store

    def run_sim():
        env = Environment()
        store = Store(env)
        received = []

        def producer(env):
            for i in range(500):
                store.put(i)
                yield env.timeout(0.001)

        def consumer(env):
            for _ in range(500):
                item = yield store.get()
                received.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        return len(received)

    assert benchmark(run_sim) == 500


@pytest.mark.parametrize("dialect", ["vdce", "mpi"])
def test_codec_array_throughput(benchmark, dialect):
    codec = MessageCodec(dialect)
    arr = np.random.default_rng(0).standard_normal((256, 256))

    def roundtrip():
        return codec.decode(codec.encode(arr))

    out = benchmark(roundtrip)
    np.testing.assert_array_equal(out, arr)
    benchmark.extra_info["payload_mb"] = arr.nbytes / 1e6


def test_graph_construction_and_levels(benchmark):
    def build():
        graph = random_layered_graph(REGISTRY, layers=6, width=6, seed=3)
        return compute_levels(graph)

    levels = benchmark(build)
    assert len(levels) == 6 * 6 + 3


def test_prediction_function_throughput(benchmark):
    tp = TaskPerformanceDB()
    register_tasks(tp, REGISTRY.all_tasks())
    rp = ResourcePerformanceDB()
    for i in range(16):
        rp.register_host("s1", HostSpec(name=f"h{i}"))
        rp.update_dynamic(f"s1/h{i}", cpu_load=0.3 * i, available_memory_mb=64,
                          time=1.0)
    predictor = PerformancePredictor(tp)
    records = rp.all_records()
    d = REGISTRY.resolve("lu-decomposition")

    def sweep():
        return predictor.best_host(d, 200, records)

    best = benchmark(sweep)
    assert best.host == "s1/h0"  # least loaded identical host


def test_full_simulated_run_throughput(benchmark):
    """End-to-end wall-clock: one complete small application per call."""
    from repro.workloads import quiet_testbed

    def run_once():
        v = quiet_testbed(seed=63)
        v.start()
        g = linear_solver_graph(v.registry, n=40)
        return v.run_application(g, "syracuse", max_sim_time_s=600)

    run = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert run.status == "completed"
