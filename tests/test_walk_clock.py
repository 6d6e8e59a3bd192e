"""The shared walk clock against one process per walk.

:class:`~repro.resources.RandomWalkLoad` steps the walks attached in one
batch from one :class:`~repro.resources.loads.WalkClock` process.  Each
generated schedule runs twice, once with the clock and once with
:class:`tests.reference_loads.ReferenceRandomWalkLoad` (a process per
walk), and every reader must see the same ``(time, host, true_load)``
sequence.  The schedules mix attaches at one instant and at several,
other processes spawned between attaches, two walks on one host sharing
its ``load:{host}`` stream, stops between ticks and exactly on a tick,
and reads on tick instants and between them.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.resources import Host, HostSpec, RandomWalkLoad
from repro.simcore import Environment
from repro.util.rng import RngRegistry

from .reference_loads import ReferenceRandomWalkLoad

HOSTS = 3
#: readers stop reading here; the schedule's own waits end well before
HORIZON_S = 9.0

attach = st.tuples(st.just("attach"), st.integers(0, HOSTS - 1),
                   st.sampled_from([0.2, 0.5, 1.5]))
spawn = st.tuples(st.just("spawn"))
reader = st.tuples(st.just("reader"), st.sampled_from([0.0, 0.5, 1.0]))
wait = st.tuples(st.just("wait"), st.sampled_from([0.0, 0.5, 1.0, 2.0]))
stop = st.tuples(st.just("stop"), st.integers(0, 7))
#: ops run before the simulation starts (as a testbed builder does)
setup_ops = st.lists(st.one_of(attach, spawn, reader), max_size=5)
#: ops a driver process runs once the simulation runs
run_ops = st.lists(st.one_of(attach, spawn, reader, wait, stop),
                   max_size=14)


def play(walk_cls, setup: list, ops: list):
    """Run one schedule; return the reads and the drained environment."""
    env = Environment()
    rngs = RngRegistry(11)
    hosts = [Host(spec=HostSpec(name=f"h{i}"), site="s") for i in range(HOSTS)]
    walks: list = []
    reads: list[tuple[float, str, float]] = []

    def read_loop(offset: float):
        yield env.timeout(offset)
        while env.now <= HORIZON_S:
            for host in hosts:
                reads.append((env.now, host.address, host.true_load))
            yield env.timeout(1.0)

    def other():
        yield env.timeout(0.5)

    def apply(op) -> None:
        kind = op[0]
        if kind == "attach":
            host = hosts[op[1]]
            walks.append(walk_cls(env, host,
                                  rngs.stream(f"load:{host.address}"),
                                  mean=op[2]))
        elif kind == "spawn":
            env.process(other(), name="other")
        elif kind == "reader":
            env.process(read_loop(op[1]), name="reader")
        elif kind == "stop" and walks:
            walks[op[1] % len(walks)].stop()

    def driver():
        for op in ops:
            if op[0] == "wait":
                yield env.timeout(op[1])
            else:
                apply(op)

    for op in setup:
        apply(op)
    env.process(driver(), name="driver")
    env.run(until=HORIZON_S + 1.0)
    for walk in walks:
        walk.stop()
    env.run(until=HORIZON_S + 3.0)
    return reads, env


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(setup=setup_ops, ops=run_ops)
def test_clock_matches_one_process_per_walk(setup, ops):
    clocked, env = play(RandomWalkLoad, setup, ops)
    reference, _ = play(ReferenceRandomWalkLoad, setup, ops)
    assert clocked == reference
    # every walk stopped: the queue drains, so a bare run() would end
    assert env.peek() == float("inf")


def test_one_clock_per_batch():
    env = Environment()
    rngs = RngRegistry(0)
    hosts = [Host(spec=HostSpec(name=f"h{i}"), site="s") for i in range(4)]
    first = [RandomWalkLoad(env, h, rngs.stream(h.address)) for h in hosts[:3]]

    def between():
        yield env.timeout(0.0)

    env.process(between(), name="between")  # scheduled between attaches
    last = RandomWalkLoad(env, hosts[3], rngs.stream(hosts[3].address))
    assert len({w.process for w in first}) == 1
    assert last.process is not first[0].process


def test_stopping_one_walk_leaves_its_batch_stepping():
    env = Environment()
    rngs = RngRegistry(0)
    h0, h1 = (Host(spec=HostSpec(name=f"h{i}"), site="s") for i in range(2))
    w0 = RandomWalkLoad(env, h0, rngs.stream("a"))
    w1 = RandomWalkLoad(env, h1, rngs.stream("b"))
    env.run(until=2.5)
    w0.stop()
    held = h0.true_load
    before = h1.true_load
    env.run(until=3.5)
    assert h0.true_load == held
    assert h1.true_load != before
    assert w1.process.is_alive
    w1.stop()
    env.run(until=4.5)
    assert not w1.process.is_alive
