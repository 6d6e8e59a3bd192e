"""Tests for the simulated message network."""

from types import SimpleNamespace

import pytest

from repro.net import ATM_OC3, Message, Network, Topology, split_address
from repro.net.network import ALWAYS_UP, FaultAction
from repro.simcore import Environment
from repro.util.errors import ChannelError, ConfigurationError


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


def routed_delay(net: Network, src_site: str, dst_site: str,
                 nbytes: float) -> float:
    """The modelled delay of a message between two hosts, priced from
    the topology's route and the per-message overhead."""
    latency, bandwidth = net.topology.route(src_site, dst_site)
    return latency + nbytes / bandwidth + net.per_message_overhead_s


def loopback_delay(net: Network, nbytes: float) -> float:
    """The modelled delay of a message between services of one host."""
    return 1e-5 + nbytes / 1e9 + net.per_message_overhead_s


class TestAddressing:
    def test_split_host_address(self):
        assert split_address("s1/h1") == ("s1", "s1/h1")

    def test_split_service_address(self):
        assert split_address("s1/h1/monitor") == ("s1", "s1/h1")

    def test_split_site_actor(self):
        assert split_address("s1") == ("s1", "s1")

    def test_malformed(self):
        with pytest.raises(ConfigurationError):
            split_address("/oops")


class TestDelivery:
    def test_message_arrives_with_delay(self):
        env, net = make_net()
        box = net.register("s2/h1")
        net.register("s1/h1")
        net.send("s1/h1", "s2/h1", "ping", payload=123, size_bytes=0)
        env.run()
        msg = box.try_get()
        assert msg is not None and msg.payload == 123
        # WAN latency + per-message overhead
        assert env.now >= ATM_OC3.latency_s

    def test_send_to_unregistered_raises(self):
        env, net = make_net()
        with pytest.raises(ChannelError):
            net.send("s1/h1", "s2/ghost", "ping")

    def test_intra_host_is_fast(self):
        env, net = make_net()
        box = net.register("s1/h1/svc")
        net.send("s1/h1/other", "s1/h1/svc", "local")
        env.run()
        assert box.try_get() is not None
        assert env.now < 0.001

    def test_larger_messages_take_longer(self):
        env, net = make_net()
        net.register("s2/h1")
        net.send("s1/h1", "s2/h1", "small", size_bytes=100)
        net.send("s1/h1", "s2/h1", "big", size_bytes=10_000_000)
        small, big = sorted(when for when, *_ in env._queue)
        assert small == routed_delay(net, "s1", "s2", 100)
        assert big == routed_delay(net, "s1", "s2", 10_000_000)
        assert big > small

    def test_multicast_reaches_all(self):
        env, net = make_net()
        boxes = [net.register(f"s2/h{i}") for i in range(3)]
        net.send_batch("s1/h1", [f"s2/h{i}" for i in range(3)], "afg",
                       payload="graph")
        env.run()
        for box in boxes:
            msg = box.try_get()
            assert msg is not None and msg.payload == "graph"

    def test_fifo_between_same_pair(self):
        env, net = make_net()
        box = net.register("s2/h1")

        def sender(env):
            for i in range(5):
                net.send("s1/h1", "s2/h1", "seq", payload=i, size_bytes=64)
                yield env.timeout(0.001)

        env.process(sender(env))
        env.run()
        got = []
        while (m := box.try_get()) is not None:
            got.append(m.payload)
        assert got == [0, 1, 2, 3, 4]


class TestFailureDrops:
    def test_down_host_drops_message(self):
        env, net = make_net()
        box = net.register("s2/h1")
        net.set_liveness(down("s2/h1"))
        net.send("s1/h1", "s2/h1", "ping")
        env.run()
        assert box.try_get() is None
        assert net.stats.dropped == 1

    def test_down_sender_drops_message(self):
        env, net = make_net()
        box = net.register("s2/h1")
        net.set_liveness(down("s1/h1"))
        net.send("s1/h1", "s2/h1", "ping")
        env.run()
        assert box.try_get() is None

    def test_mid_flight_crash_loses_message(self):
        env, net = make_net()
        box = net.register("s2/h1")
        h1 = SimpleNamespace(up=True)
        net.set_liveness(lambda key: h1 if key == "s2/h1" else ALWAYS_UP)

        def crash(env):
            yield env.timeout(ATM_OC3.latency_s / 2)
            h1.up = False

        net.send("s1/h1", "s2/h1", "ping", size_bytes=0)
        env.process(crash(env))
        env.run()
        assert box.try_get() is None


class TestSingleDeliveryPath:
    """``send`` rides one ``call_later`` heap entry, never a process."""

    def test_send_is_one_heap_entry_and_no_process(self, monkeypatch):
        env, net = make_net()
        box = net.register("s2/h1")
        spawned = []
        monkeypatch.setattr(Environment, "process",
                            lambda self, gen, name=None: spawned.append(name))
        net.send("s1/h1", "s2/h1", "ping", payload=7, size_bytes=64)
        assert spawned == []
        [(when, _prio, _seq, _entry)] = env._queue
        assert when == routed_delay(net, "s1", "s2", 64)
        env.run()
        assert box.try_get().payload == 7
        assert env.now == when

    def test_duplicates_arrive_in_order_from_one_entry(self):
        env, net = make_net()
        box = net.register("s2/h1")
        net.fault_hook = lambda msg: (FaultAction(duplicates=2)
                                      if msg.payload == "a" else None)
        first = net.send("s1/h1", "s2/h1", "ping", payload="a")
        assert len(env._queue) == 1  # original + 2 copies, one entry
        net.send("s1/h1", "s2/h1", "ping", payload="b")
        env.run()
        got = []
        while (m := box.try_get()) is not None:
            got.append(m)
        assert [m.payload for m in got] == ["a", "a", "a", "b"]
        assert all(m is first for m in got[:3])
        assert net.stats.injected_duplicates == 2

    def test_mid_flight_crash_drops_every_copy(self):
        env, net = make_net()
        box = net.register("s2/h1")
        net.fault_hook = lambda msg: FaultAction(duplicates=2)
        net.send("s1/h1", "s2/h1", "ping")
        net.set_liveness(down("s2/h1"))  # dies mid-flight
        env.run()
        assert box.try_get() is None
        assert net.stats.messages == 1
        assert net.stats.dropped == 3  # the original and both copies


class TestDelayForEdgeCases:
    def test_zero_byte_payload_still_costs_latency(self):
        env, net = make_net()
        net.register("s2/h1")
        net.send("s1/h1", "s2/h1", "ping", size_bytes=0)
        [(when, *_)] = env._queue
        assert when == routed_delay(net, "s1", "s2", 0)
        assert when >= ATM_OC3.latency_s + net.per_message_overhead_s

    def test_zero_byte_loopback_costs_only_overhead(self):
        env, net = make_net()
        net.register("s1/h1/svc")
        net.send("s1/h1", "s1/h1/svc", "ping", size_bytes=0)
        [(when, *_)] = env._queue
        assert when == loopback_delay(net, 0)
        assert when == pytest.approx(1e-5 + net.per_message_overhead_s)

    def test_self_send_src_equals_dst(self):
        env, net = make_net()
        box = net.register("s1/h1")
        net.send("s1/h1", "s1/h1", "note", payload="self")
        env.run()
        msg = box.try_get()
        assert msg is not None and msg.src == msg.dst == "s1/h1"

    def test_self_send_uses_loopback_not_topology(self):
        env, net = make_net()
        # loopback between services of one host must not consult the LAN
        net.register("s1/h1/b")
        net.register("s1/h2")
        net.send("s1/h1/a", "s1/h1/b", "local", size_bytes=1000)
        net.send("s1/h1", "s1/h2", "lan", size_bytes=1000)
        local, lan = sorted(when for when, *_ in env._queue)
        assert local == loopback_delay(net, 1000)
        assert lan == routed_delay(net, "s1", "s1", 1000)
        assert local < lan

    def test_unknown_site_raises(self):
        env, net = make_net()
        with pytest.raises(ChannelError):
            net.send("s1/h1", "atlantis/h1", "ping", size_bytes=100)
        # registered, a site the topology lacks has no route: its
        # messages are partition drops, never priced or scheduled
        net.register("atlantis/h1")
        net.send("s1/h1", "atlantis/h1", "ping", size_bytes=100)
        assert env._queue == []
        assert net.stats.partition_drops == 1

    def test_malformed_address_raises(self):
        env, net = make_net()
        net.register("s2/h1")
        with pytest.raises(ConfigurationError):
            net.send("/bad", "s2/h1", "ping", size_bytes=100)
        with pytest.raises(ConfigurationError):
            net.register("/bad")
        assert net.stats.messages == 0


class TestTrafficStats:
    def test_counters(self):
        env, net = make_net()
        net.register("s2/h1")
        net.send("s1/h1", "s2/h1", "a", size_bytes=100)
        net.send("s1/h1", "s2/h1", "a", size_bytes=50)
        net.send("s1/h1", "s2/h1", "b", size_bytes=25)
        assert net.stats.messages == 3
        assert net.stats.bytes == 175
        assert net.stats.by_kind == {"a": 2, "b": 1}
        assert net.stats.bytes_by_kind["a"] == 150

    def test_account_zero_byte_message(self):
        env, net = make_net()
        net.register("s2/h1")
        net.send("s1/h1", "s2/h1", "k", size_bytes=0)
        stats = net.stats
        assert stats.messages == 1
        assert stats.bytes == 0
        assert stats.by_kind == {"k": 1}
        assert stats.bytes_by_kind["k"] == 0

    def test_account_accumulates_float_bytes(self):
        env, net = make_net()
        net.register("s2/h1")
        net.send("s1/h1", "s2/h1", "k", size_bytes=0.5)
        net.send("s1/h1", "s2/h1", "k", size_bytes=0.25)
        assert net.stats.bytes == pytest.approx(0.75)
        assert net.stats.bytes_by_kind["k"] == pytest.approx(0.75)

    def test_dropped_messages_still_accounted_as_sent(self):
        env, net = make_net()
        net.register("s2/h1")
        net.set_liveness(down("s2/h1"))
        net.send("s1/h1", "s2/h1", "a", size_bytes=10)
        assert net.stats.messages == 1
        assert net.stats.dropped == 1


class TestFaultHook:
    def test_hook_drop_counts_injected(self):
        env, net = make_net()
        box = net.register("s2/h1")
        net.fault_hook = lambda msg: FaultAction(drop=True)
        net.send("s1/h1", "s2/h1", "ping")
        env.run()
        assert box.try_get() is None
        assert net.stats.dropped == 1
        assert net.stats.injected_drops == 1

    def test_hook_duplicate_delivers_copies(self):
        env, net = make_net()
        box = net.register("s2/h1")
        net.fault_hook = lambda msg: FaultAction(duplicates=2)
        net.send("s1/h1", "s2/h1", "ping", payload=1)
        env.run()
        got = []
        while box.try_get() is not None:
            got.append(1)
        assert len(got) == 3
        assert net.stats.injected_duplicates == 2

    def test_hook_delay_slows_delivery(self):
        env, net = make_net()
        box = net.register("s2/h1")
        net.fault_hook = lambda msg: FaultAction(extra_delay_s=1.0)
        net.send("s1/h1", "s2/h1", "ping", size_bytes=0)
        env.run(until=0.5)
        assert box.try_get() is None
        env.run()
        assert box.try_get() is not None
        assert env.now >= 1.0

    def test_hook_none_means_no_fault(self):
        env, net = make_net()
        box = net.register("s2/h1")
        net.fault_hook = lambda msg: None
        net.send("s1/h1", "s2/h1", "ping")
        env.run()
        assert box.try_get() is not None
        assert net.stats.injected_drops == 0

    def test_hook_not_consulted_for_down_host(self):
        env, net = make_net()
        calls = []
        net.register("s2/h1")
        net.set_liveness(down("s2/h1"))
        net.fault_hook = lambda msg: calls.append(msg)
        net.send("s1/h1", "s2/h1", "ping")
        assert calls == []  # natural drop wins before injection


class TestBatchChecksFirst:
    """A batch that fails sends nothing: every destination and every size
    is checked before any message is counted or scheduled."""

    @staticmethod
    def assert_nothing_sent(env, net, *boxes):
        assert net.stats.messages == 0
        assert net.stats.bytes == 0
        assert dict(net.stats.by_kind) == {}
        assert env._queue == []
        env.run()
        for box in boxes:
            assert box.try_get() is None

    def test_unregistered_destination_sends_nothing(self):
        env, net = make_net()
        first = net.register("s1/h1")
        with pytest.raises(ChannelError, match="s1/nope"):
            net.send_batch("s1/h0", ["s1/h1", "s1/nope"], "k")
        self.assert_nothing_sent(env, net, first)

    @pytest.mark.parametrize("size", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("dst", ["s1/h0/svc", "s1/h1", "s2/h1"],
                             ids=["loopback", "lan", "wan"])
    def test_bad_size_sends_nothing(self, size, dst):
        env, net = make_net()
        box = net.register(dst)
        with pytest.raises(ConfigurationError, match="size"):
            net.send("s1/h0", dst, "k", size_bytes=size)
        self.assert_nothing_sent(env, net, box)

    def test_one_bad_size_in_a_batch_sends_nothing(self):
        env, net = make_net()
        boxes = [net.register(f"s1/h{i}") for i in (1, 2, 3)]
        with pytest.raises(ConfigurationError):
            net.send_batch("s1/h0", ["s1/h1", "s1/h2", "s1/h3"], "k",
                           sizes=[64.0, float("nan"), 64.0])
        self.assert_nothing_sent(env, net, *boxes)

    def test_shared_size_ignored_when_sizes_given(self):
        env, net = make_net()
        box = net.register("s1/h1")
        net.send_batch("s1/h0", ["s1/h1"], "k", size_bytes=-1.0,
                       sizes=[32.0])
        env.run()
        assert box.try_get().size_bytes == 32.0


class TestMessage:
    def test_positional_record(self):
        m = Message("a", "b", "req", {"x": 1}, 64.0, 2.5)
        assert (m.src, m.dst, m.kind, m.payload, m.size_bytes,
                m.send_time) == ("a", "b", "req", {"x": 1}, 64.0, 2.5)
        assert not hasattr(m, "__dict__")

    def test_send_stamps_send_time(self):
        env, net = make_net()
        net.register("s2/h1")
        env.run(until=1.5)
        msg = net.send("s1/h1", "s2/h1", "ping")
        assert msg.send_time == 1.5
        assert msg.size_bytes == 256.0
