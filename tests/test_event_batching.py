"""Batched event delivery: the kernel primitive and the network fan-out.

:meth:`Environment.call_later` puts one ``_Callback`` heap entry behind
a whole delivery run, :meth:`Store.put` hands each message over without
an event of its own, and :meth:`Network.send_batch` coalesces
consecutive same-delay messages onto one entry.  ``Network.send`` is a
one-destination ``send_batch``, so the contract is *semantic
equivalence*: a batch must be indistinguishable — message contents,
arrival order, stats, fault-hook consultations, simulated clock — from
the loop of ``send`` calls it replaces.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.net import ATM_OC3, Network, Topology
from repro.net.network import ALWAYS_UP, FaultAction
from repro.simcore import Environment
from repro.simcore.store import Store
from repro.util.errors import (
    ChannelError,
    ConfigurationError,
    SimulationError,
)


# ---------------------------------------------------------------------------
# the kernel primitive
# ---------------------------------------------------------------------------

class TestCallLater:
    def test_fires_at_the_scheduled_time_in_seq_order(self):
        env = Environment()
        order = []
        env.call_later(2.0, order.append, "late")
        env.call_later(1.0, order.append, "early-first")
        env.call_later(1.0, order.append, "early-second")
        env.run()
        assert order == ["early-first", "early-second", "late"]
        assert env.now == 2.0

    def test_interleaves_with_processes_at_the_same_instant(self):
        env = Environment()
        order = []

        def proc(env):
            yield env.timeout(1.0)
            order.append("process")

        env.process(proc(env))
        env.call_later(1.0, order.append, "callback")
        env.run()
        # seq order decides ties: the callback entry was pushed at setup,
        # the process's timeout only when its bootstrap ran at t=0
        assert order == ["callback", "process"]

    def test_shared_list_keeps_growing_until_the_entry_fires(self):
        env = Environment()
        seen = []
        run: list[str] = []
        env.call_later(1.0, lambda entries: seen.extend(entries), run)
        run.append("a")
        run.append("b")
        env.run()
        assert seen == ["a", "b"]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.call_later(-0.1, print, None)

    def test_nan_delay_rejected(self):
        # a NaN entry would fire at now = NaN and poison the clock; an
        # infinite delay stays legal (the entry simply never fires)
        env = Environment()
        fired = []
        with pytest.raises(SimulationError):
            env.call_later(float("nan"), fired.append, "nan")
        env.call_later(float("inf"), fired.append, "never")
        env.call_later(1.0, fired.append, "one")
        env.run(until=10.0)
        assert fired == ["one"] and env.now == 10.0


class TestPut:
    def test_buffers_items_in_order(self):
        env = Environment()
        store = Store(env)
        store.put("x")
        store.put("y")
        assert store.try_get() == "x"
        assert store.try_get() == "y"
        assert env._queue == []  # a buffered put schedules nothing

    def test_hands_item_straight_to_waiting_getter(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter(env):
            item = yield store.get()
            got.append(item)

        env.process(getter(env))
        env.run()
        store.put("direct")
        assert len(env._queue) == 1  # the getter's trigger, nothing else
        env.run()
        assert got == ["direct"]
        assert len(store) == 0


# ---------------------------------------------------------------------------
# the network fan-out
# ---------------------------------------------------------------------------

def make_net() -> tuple[Environment, Network]:
    env = Environment()
    topo = Topology()
    topo.add_site("s1")
    topo.add_site("s2")
    topo.connect("s1", "s2", ATM_OC3)
    return env, Network(env, topo)


#: liveness of a host a test takes down
DOWN = SimpleNamespace(up=False)


def down(*hosts: str):
    """A liveness resolver reading *hosts* as down, every other key up."""
    return lambda key: DOWN if key in hosts else ALWAYS_UP


def drain(box) -> list:
    out = []
    while True:
        msg = box.try_get()
        if msg is None:
            return out
        out.append((msg.src, msg.dst, msg.kind, msg.payload,
                    msg.size_bytes))


def run_fanout(as_batch: bool, hook=None):
    """One mixed intra-/cross-site fan-out, sent as one ``send_batch``
    or as a loop of ``send``; returns the observables."""
    env, net = make_net()
    net.register("s1/h0/src")
    # cross-site first: the slower WAN copies arrive last
    dsts = [f"s2/h{i}/svc" for i in range(1, 3)] \
        + [f"s1/h{i}/svc" for i in range(1, 4)]
    arrivals: list = []

    def listen(env, box):
        while True:
            msg = yield box.get()
            arrivals.append((env.now, msg.src, msg.dst, msg.kind,
                             msg.payload, msg.size_bytes))

    for dst in dsts:
        env.process(listen(env, net.register(dst)))
    env.run()  # park every listener on its mailbox
    if hook is not None:
        net.fault_hook = hook
    payloads = [f"portion-{i}" for i in range(len(dsts))]
    # equal sizes per site pair share a delay: two multi-message runs
    sizes = [128.0, 128.0, 64.0, 64.0, 512.0]
    if as_batch:
        msgs = net.send_batch("s1/h0/src", dsts, "alloc",
                              payloads=payloads, sizes=sizes)
    else:
        msgs = [net.send("s1/h0/src", dst, "alloc", pl, size)
                for dst, pl, size in zip(dsts, payloads, sizes)]
    env.run()
    return {
        "sent": [(m.src, m.dst, m.kind, m.payload, m.size_bytes)
                 for m in msgs],
        "arrivals": arrivals,
        "clock": env.now,
        "stats": (net.stats.messages, net.stats.bytes, net.stats.dropped,
                  net.stats.injected_drops, net.stats.injected_duplicates,
                  dict(net.stats.by_kind), dict(net.stats.bytes_by_kind)),
    }


class TestBatchEquivalence:
    def test_batch_matches_unbatched_loop_exactly(self):
        batched = run_fanout(as_batch=True)
        assert batched == run_fanout(as_batch=False)
        # the fixture mixes delays, so arrival order is not send order
        assert [a[2] for a in batched["arrivals"]] \
            != [s[1] for s in batched["sent"]]

    def test_fault_hook_order_drops_and_duplicates_match(self):
        def make_hook(calls):
            def hook(msg):
                calls.append(msg.dst)
                if msg.dst.startswith("s1/h2"):
                    return FaultAction(drop=True)
                if msg.dst.startswith("s2/h1"):
                    return FaultAction(duplicates=1, extra_delay_s=0.5)
                return None
            return hook

        batched_calls: list[str] = []
        loop_calls: list[str] = []
        batched = run_fanout(as_batch=True, hook=make_hook(batched_calls))
        loop = run_fanout(as_batch=False, hook=make_hook(loop_calls))
        assert batched_calls == loop_calls  # injector RNG order
        assert batched == loop
        arrived = [a[2] for a in batched["arrivals"]]
        assert "s1/h2/svc" not in arrived           # dropped
        assert arrived.count("s2/h1/svc") == 2      # duplicated
        assert arrived[-2:] == ["s2/h1/svc"] * 2    # +0.5 s, last

    def test_multicast_rides_send_batch(self):
        env, net = make_net()
        net.register("s1/h0/src")
        boxes = [net.register(f"s1/h{i}/svc") for i in range(1, 4)]
        net.send_batch("s1/h0/src", [f"s1/h{i}/svc" for i in range(1, 4)],
                       "afg", payload={"graph": "g"}, size_bytes=64)
        env.run()
        for box in boxes:
            [(_, _, kind, payload, size)] = drain(box)
            assert (kind, payload, size) == ("afg", {"graph": "g"}, 64)


class TestBatchSemantics:
    def test_same_delay_run_shares_one_heap_entry(self):
        env, net = make_net()
        net.register("s1/h0/src")
        dsts = [f"s1/h{i}/svc" for i in range(1, 101)]
        for dst in dsts:
            net.register(dst)
        net.send_batch("s1/h0/src", dsts, "echo", payload=1, size_bytes=32)
        # 100 same-site, same-size messages share one modelled delay:
        # exactly one queue entry carries the whole run
        assert len(env._queue) == 1
        env.run()
        assert net.stats.messages == 100
        assert net.stats.dropped == 0

    def test_down_destination_dropped_at_send(self):
        env, net = make_net()
        net.register("s1/h0/src")
        boxes = {f"s1/h{i}/svc": net.register(f"s1/h{i}/svc")
                 for i in (1, 2)}
        net.set_liveness(down("s1/h1"))
        net.send_batch("s1/h0/src", list(boxes), "ping")
        env.run()
        assert net.stats.dropped == 1
        assert drain(boxes["s1/h1/svc"]) == []
        assert len(drain(boxes["s1/h2/svc"])) == 1

    def test_mid_flight_down_drops_on_arrival(self):
        env, net = make_net()
        net.register("s1/h0/src")
        box = net.register("s1/h1/svc")
        net.send_batch("s1/h0/src", ["s1/h1/svc"], "ping")
        net.set_liveness(down("s1/h1"))  # dies mid-flight
        env.run()
        assert net.stats.dropped == 1
        assert drain(box) == []

    def test_misaligned_overrides_rejected(self):
        env, net = make_net()
        net.register("s1/h0/src")
        net.register("s1/h1/svc")
        with pytest.raises(ConfigurationError):
            net.send_batch("s1/h0/src", ["s1/h1/svc"], "x",
                           payloads=["a", "b"])
        with pytest.raises(ConfigurationError):
            net.send_batch("s1/h0/src", ["s1/h1/svc"], "x",
                           sizes=[1.0, 2.0])

    def test_unregistered_destination_raises(self):
        env, net = make_net()
        net.register("s1/h0/src")
        with pytest.raises(ChannelError):
            net.send_batch("s1/h0/src", ["s1/ghost/svc"], "x")
