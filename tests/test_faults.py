"""Unit coverage for every public class/function in ``repro.faults``,
plus the retry/backoff machinery it drives (RetryPolicy, DataManager
retries) and a smoke run of the fault-tolerance example."""

import dataclasses
import json

import numpy as np
import pytest

from repro.faults import (
    SPEC_TYPES,
    FaultInjector,
    FaultPlan,
    HostCrash,
    LinkDegrade,
    LinkDown,
    LinkFlap,
    MessageFaults,
    ServerCrash,
    SiteOutage,
)
from repro.net import ATM_OC3, LinkSpec, Message, Network, Topology
from repro.net.network import ALWAYS_UP
from repro.resources import Host, HostSpec
from repro.runtime.data.data_manager import ChannelSpec, DataManager
from repro.runtime.data.messaging import RetryPolicy
from repro.simcore import Environment
from repro.util.errors import ConfigurationError


# ---------------------------------------------------------------------------
# fault specs
# ---------------------------------------------------------------------------

class TestHostCrash:
    def test_valid(self):
        HostCrash(host="s/h", at=1.0).validate()
        HostCrash(host="s/h", at=0.0, recover_after=5.0).validate()

    def test_requires_host(self):
        with pytest.raises(ConfigurationError):
            HostCrash(host="", at=1.0).validate()

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            HostCrash(host="s/h", at=-1.0).validate()

    def test_nonpositive_recovery_rejected(self):
        with pytest.raises(ConfigurationError):
            HostCrash(host="s/h", at=1.0, recover_after=0.0).validate()


class TestSiteOutage:
    def test_valid(self):
        SiteOutage(site="s", at=0.0, recover_after=1.0).validate()

    def test_requires_site(self):
        with pytest.raises(ConfigurationError):
            SiteOutage(site="", at=1.0).validate()


LINK_FAULTS = (
    LinkDown(site_a="a", site_b="b", at=0.0, restore_after=5.0),
    LinkFlap(site_a="a", site_b="b", at=0.0, down_s=5.0, up_s=5.0,
             cycles=2),
    LinkDegrade(site_a="a", site_b="b", at=0.0, duration=5.0),
)


def by_kind(spec):
    return spec.kind


class TestLinkFaultSpecs:
    @pytest.mark.parametrize("spec", LINK_FAULTS, ids=by_kind)
    def test_valid(self, spec):
        spec.validate()

    @pytest.mark.parametrize("spec", LINK_FAULTS, ids=by_kind)
    def test_same_site_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(spec, site_b="a").validate()

    @pytest.mark.parametrize("spec, window", [
        (LINK_FAULTS[0], "restore_after"),
        (LINK_FAULTS[1], "down_s"),
        (LINK_FAULTS[1], "up_s"),
        (LINK_FAULTS[2], "duration"),
    ], ids=["link-down", "link-flap-down", "link-flap-up", "link-degrade"])
    @pytest.mark.parametrize("length", [0.0, -1.0], ids=["zero", "negative"])
    def test_nonpositive_window_rejected(self, spec, window, length):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(spec, **{window: length}).validate()

    @pytest.mark.parametrize("factors", [
        dict(bandwidth_factor=0.0),
        dict(bandwidth_factor=1.5),
        dict(latency_factor=0.5),
    ], ids=["bandwidth-zero", "bandwidth-above-one", "latency-below-one"])
    def test_degrade_factors_out_of_range_rejected(self, factors):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(LINK_FAULTS[2], **factors).validate()


class TestMessageFaults:
    def test_valid(self):
        MessageFaults(at=0.0, duration=1.0, drop_prob=0.5).validate()

    def test_all_probs_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            MessageFaults(at=0.0, duration=1.0).validate()

    def test_bad_prob_rejected(self):
        with pytest.raises(ConfigurationError):
            MessageFaults(at=0.0, duration=1.0, dup_prob=2.0).validate()

    def test_matches_by_kind(self):
        w = MessageFaults(at=0.0, duration=1.0, drop_prob=1.0,
                          kinds=("ping",))
        assert w.matches(Message(src="a/h", dst="b/h", kind="ping"))
        assert not w.matches(Message(src="a/h", dst="b/h", kind="pong"))

    def test_matches_by_prefix(self):
        w = MessageFaults(at=0.0, duration=1.0, drop_prob=1.0,
                          src_prefix="a/", dst_prefix="b/")
        assert w.matches(Message(src="a/h", dst="b/h", kind="x"))
        assert not w.matches(Message(src="c/h", dst="b/h", kind="x"))
        assert not w.matches(Message(src="a/h", dst="c/h", kind="x"))

    def test_matches_everything_by_default(self):
        w = MessageFaults(at=0.0, duration=1.0, drop_prob=1.0)
        assert w.matches(Message(src="x/y", dst="z/w", kind="anything"))


class TestSpecTypes:
    def test_registry_keys_are_kind_tags(self):
        assert SPEC_TYPES == {
            "host-crash": HostCrash, "site-outage": SiteOutage,
            "link-down": LinkDown, "link-flap": LinkFlap,
            "link-degrade": LinkDegrade,
            "message-faults": MessageFaults,
            "server-crash": ServerCrash,
        }


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------

def sample_plan() -> FaultPlan:
    return FaultPlan(events=(
        HostCrash(host="a/h1", at=5.0, recover_after=10.0),
        SiteOutage(site="b", at=7.0),
        LinkDown(site_a="a", site_b="b", at=2.0, restore_after=3.0),
        MessageFaults(at=1.0, duration=4.0, drop_prob=0.2,
                      kinds=("ping", "pong")),
    ))


#: plan documents ``from_dicts`` must reject with a typed error
MALFORMED_PLAN_ENTRIES = (
    {"kind": "meteor-strike", "at": 1.0},
    {"kind": "link-partition", "site_a": "a", "site_b": "b", "at": 1.0,
     "duration": 5.0},
    # LinkDown has no ``duration`` field
    {"kind": "link-down", "site_a": "a", "site_b": "b", "at": 1.0,
     "duration": 5.0},
    {"kind": "host-crash", "at": 1.0},
    {"kind": "host-crash", "host": "a/h", "at": "5"},
    "host-crash",
    # a bare string would become a tuple of one-letter kinds
    {"kind": "message-faults", "at": 1.0, "duration": 5.0,
     "drop_prob": 1.0, "kinds": "load-report"},
    {"kind": "message-faults", "at": 1.0, "duration": 5.0,
     "drop_prob": 1.0, "kinds": ["load-report", 7]},
    {"kind": "link-flap", "site_a": "a", "site_b": "b", "at": 1.0,
     "cycles": 2.5},
    {"kind": "link-flap", "site_a": "a", "site_b": "b", "at": 1.0,
     "cycles": True},
    {"kind": "host-crash", "host": 123, "at": 1.0},
    {"kind": "server-crash", "site": ["a"], "at": 1.0},
    {"kind": "link-down", "site_a": 1, "site_b": 2, "at": 1.0},
    {"kind": "host-crash", "host": "a/h", "at": float("nan")},
    {"kind": "host-crash", "host": "a/h", "at": float("inf")},
    {"kind": "host-crash", "host": "a/h", "at": True},
    {"kind": "host-crash", "host": "a/h", "at": 1.0,
     "recover_after": float("inf")},
    {"kind": "message-faults", "at": 1.0, "duration": float("inf"),
     "drop_prob": 1.0},
    {"kind": "message-faults", "at": 1.0, "duration": 5.0,
     "delay_prob": 1.0, "delay_s": float("nan")},
    {"kind": "message-faults", "at": 1.0, "duration": 5.0,
     "drop_prob": 1.0, "dst_prefix": 5},
    {"kind": "link-degrade", "site_a": "a", "site_b": "b", "at": 1.0,
     "duration": 5.0, "latency_factor": float("inf")},
)


class TestFaultPlan:
    def test_len_and_iter(self):
        plan = sample_plan()
        assert len(plan) == 4
        assert [e.kind for e in plan] == [
            "host-crash", "site-outage", "link-down", "message-faults"]

    def test_events_coerced_to_tuple(self):
        plan = FaultPlan(events=[HostCrash(host="a/h", at=1.0)])
        assert isinstance(plan.events, tuple)

    def test_validates_each_event(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(events=(HostCrash(host="", at=1.0),))

    def test_rejects_foreign_types(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(events=("not-a-fault",))

    def test_host_faults_and_window_faults_partition_events(self):
        plan = sample_plan()
        assert {e.kind for e in plan.host_faults()} == \
            {"host-crash", "site-outage"}
        assert {e.kind for e in plan.window_faults()} == {"message-faults"}
        assert {e.kind for e in plan.link_faults()} == {"link-down"}
        assert len(plan.host_faults()) + len(plan.window_faults()) + \
            len(plan.link_faults()) == len(plan)

    def test_shifted_moves_every_time(self):
        plan = sample_plan()
        moved = plan.shifted(100.0)
        assert [e.at for e in moved] == [e.at + 100.0 for e in plan]

    def test_roundtrip_through_dicts(self):
        plan = sample_plan()
        assert FaultPlan.from_dicts(plan.to_dicts()) == plan

    def test_to_dicts_is_json_ready(self):
        json.dumps(sample_plan().to_dicts())

    def test_from_dicts_unknown_kind_rejected(self):
        valid = {"kind": "host-crash", "host": "a/h", "at": 1.0}
        for doc in MALFORMED_PLAN_ENTRIES:
            with pytest.raises(ConfigurationError,
                               match=r"fault plan entry 1\b") as info:
                FaultPlan.from_dicts([valid, doc])
            if isinstance(doc, dict):
                assert doc["kind"] in str(info.value)


class TestFaultPlanRandom:
    def test_same_seed_same_plan(self):
        hosts = ["a/h1", "a/h2", "b/h1"]
        p1 = FaultPlan.random(np.random.default_rng(42), hosts,
                              sites=["a", "b"])
        p2 = FaultPlan.random(np.random.default_rng(42), hosts,
                              sites=["a", "b"])
        assert p1 == p2

    def test_different_seeds_differ(self):
        hosts = ["a/h1", "a/h2", "b/h1"]
        p1 = FaultPlan.random(np.random.default_rng(1), hosts)
        p2 = FaultPlan.random(np.random.default_rng(2), hosts)
        assert p1 != p2

    def test_events_sorted_by_time(self):
        plan = FaultPlan.random(np.random.default_rng(3),
                                ["a/h1", "a/h2"], sites=["a", "b"])
        times = [e.at for e in plan]
        assert times == sorted(times)

    def test_respects_counts(self):
        plan = FaultPlan.random(
            np.random.default_rng(4), ["a/h1", "a/h2", "b/h1"],
            sites=["a", "b"], n_host_crashes=1, n_message_windows=3,
            n_partitions=2)
        kinds = [e.kind for e in plan]
        assert kinds.count("host-crash") == 1
        assert kinds.count("message-faults") == 3
        assert kinds.count("link-down") == 2

    def test_crash_victims_unique_and_from_pool(self):
        hosts = ["a/h1", "a/h2", "b/h1"]
        plan = FaultPlan.random(np.random.default_rng(5), hosts,
                                n_host_crashes=3, n_message_windows=0)
        victims = [e.host for e in plan.host_faults()]
        assert len(victims) == len(set(victims)) == 3
        assert set(victims) <= set(hosts)

    def test_no_partitions_with_fewer_than_two_sites(self):
        plan = FaultPlan.random(np.random.default_rng(6), ["a/h1"],
                                sites=["a"], n_partitions=5)
        assert not plan.link_faults()

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.random(np.random.default_rng(0), ["a/h"],
                             horizon_s=0.0)


# ---------------------------------------------------------------------------
# FaultInjector
# ---------------------------------------------------------------------------

def make_world():
    """Two sites, one host each, plus an injector wired to them."""
    env = Environment()
    topo = Topology()
    topo.add_site("a")
    topo.add_site("b")
    topo.connect("a", "b", ATM_OC3)
    net = Network(env, topo)
    hosts = {
        "a/h1": Host(spec=HostSpec(name="h1"), site="a"),
        "b/h1": Host(spec=HostSpec(name="h1"), site="b"),
    }
    net.set_liveness(lambda addr: hosts.get(addr, ALWAYS_UP))
    injector = FaultInjector(
        env, net, rng=np.random.default_rng(0),
        host_resolver=lambda addr: hosts[addr],
        site_hosts=lambda s: [h for a, h in hosts.items()
                              if a.startswith(f"{s}/")])
    return env, net, hosts, injector


class TestFaultInjectorHostFaults:
    def test_crash_and_recover(self):
        env, net, hosts, inj = make_world()
        inj.install(FaultPlan(events=(
            HostCrash(host="a/h1", at=2.0, recover_after=3.0),)))
        env.run(until=3.0)
        assert not hosts["a/h1"].up
        env.run(until=6.0)
        assert hosts["a/h1"].up
        assert [e["fault"] for e in inj.events] == ["host-down", "host-up"]
        assert [e["t"] for e in inj.events] == [2.0, 5.0]

    def test_crash_without_recovery_is_permanent(self):
        env, net, hosts, inj = make_world()
        inj.install(FaultPlan(events=(HostCrash(host="a/h1", at=1.0),)))
        env.run(until=100.0)
        assert not hosts["a/h1"].up
        assert inj.counts() == {"host-down": 1}

    def test_site_outage_downs_every_site_host(self):
        env, net, hosts, inj = make_world()
        inj.install(FaultPlan(events=(
            SiteOutage(site="b", at=1.0, recover_after=2.0),)))
        env.run(until=2.0)
        assert not hosts["b/h1"].up and hosts["a/h1"].up
        env.run(until=4.0)
        assert hosts["b/h1"].up
        assert inj.counts() == {"site-down": 1, "site-up": 1}

    def test_past_fault_rejected(self):
        env, net, hosts, inj = make_world()
        env.run(until=10.0)
        with pytest.raises(ConfigurationError):
            inj.install(FaultPlan(events=(HostCrash(host="a/h1", at=5.0),)))

    def test_missing_host_resolver_rejected(self):
        env, net, _, _ = make_world()
        bare = FaultInjector(env, net)
        with pytest.raises(ConfigurationError):
            bare.install(FaultPlan(events=(HostCrash(host="a/h1", at=1.0),)))

    def test_missing_site_resolver_rejected(self):
        env, net, hosts, _ = make_world()
        bare = FaultInjector(env, net,
                             host_resolver=lambda addr: hosts[addr])
        with pytest.raises(ConfigurationError):
            bare.install(FaultPlan(events=(SiteOutage(site="b", at=1.0),)))


class TestFaultInjectorMessageFaults:
    def send_and_run(self, env, net, kind="ping", src="a/h1", dst="b/h1"):
        net.register(src)
        box = net.register(dst)
        net.send(src, dst, kind, size_bytes=0)
        env.run(until=env.now + 5.0)
        return box

    def cut(self, inj, restore_after=10.0):
        """Take the a~b link down at t=1.0."""
        inj.install(FaultPlan(events=(
            LinkDown(site_a="a", site_b="b", at=1.0,
                     restore_after=restore_after),)))

    def test_partition_drops_cross_site_traffic(self):
        env, net, hosts, inj = make_world()
        self.cut(inj)
        env.run(until=2.0)
        box = self.send_and_run(env, net)
        assert box.try_get() is None
        # the network's routing check drops it, not the fault hook
        assert net.stats.partition_drops == 1
        assert net.stats.injected_drops == 0
        assert inj.counts() == {"link-down": 1}

    def test_partition_spares_intra_site_traffic(self):
        env, net, hosts, inj = make_world()
        self.cut(inj)
        env.run(until=2.0)
        box = self.send_and_run(env, net, src="a/h1", dst="a/h2")
        assert box.try_get() is not None
        assert net.stats.dropped == 0

    def test_window_over_means_no_fault(self):
        env, net, hosts, inj = make_world()
        self.cut(inj, restore_after=1.0)
        env.run(until=1.5)
        assert self.send_and_run(env, net).try_get() is None
        assert self.send_and_run(env, net).try_get() is not None
        assert net.stats.partition_drops == 1
        assert [(e["t"], e["fault"], e["link"]) for e in inj.events] == [
            (1.0, "link-down", "a~b"), (2.0, "link-up", "a~b")]

    def test_degradation_multiplies_delay(self):
        env, net, hosts, inj = make_world()
        original = net.topology.link("a", "b")
        inj.install(FaultPlan(events=(
            LinkDegrade(site_a="a", site_b="b", at=1.0, duration=10.0,
                        bandwidth_factor=0.01, latency_factor=100.0),)))
        env.run(until=2.0)
        slow = LinkSpec(latency_s=original.latency_s * 100.0,
                        bandwidth_bps=original.bandwidth_bps * 0.01)
        delay = slow.transfer_time(1e6) + net.per_message_overhead_s
        net.register("a/h1")
        box = net.register("b/h1")
        net.send("a/h1", "b/h1", "ping", size_bytes=1e6)
        env.run(until=2.0 + delay * 0.99)
        assert box.try_get() is None  # still in flight on the slow link
        env.run(until=2.0 + delay * 1.01)
        assert box.try_get() is not None
        env.run(until=12.0)
        assert net.topology.link("a", "b") == original
        assert [(e["t"], e["fault"]) for e in inj.events] == [
            (1.0, "link-degrade"), (11.0, "link-restore")]

    def test_certain_drop_window_drops(self):
        env, net, hosts, inj = make_world()
        inj.install(FaultPlan(events=(
            MessageFaults(at=0.0, duration=10.0, drop_prob=1.0),)))
        box = self.send_and_run(env, net)
        assert box.try_get() is None
        assert inj.counts() == {"msg-drop": 1}

    def test_kind_filter_spares_other_kinds(self):
        env, net, hosts, inj = make_world()
        inj.install(FaultPlan(events=(
            MessageFaults(at=0.0, duration=10.0, drop_prob=1.0,
                          kinds=("doomed",)),)))
        box = self.send_and_run(env, net, kind="ping")
        assert box.try_get() is not None

    def test_certain_duplicate_window_duplicates(self):
        env, net, hosts, inj = make_world()
        inj.install(FaultPlan(events=(
            MessageFaults(at=0.0, duration=10.0, dup_prob=1.0),)))
        box = self.send_and_run(env, net)
        seen = 0
        while box.try_get() is not None:
            seen += 1
        assert seen == 2
        assert inj.counts() == {"msg-dup": 1}

    def test_hook_installed_only_for_window_faults(self):
        env, net, hosts, inj = make_world()
        inj.install(FaultPlan(events=(HostCrash(host="a/h1", at=1.0),)))
        assert net.fault_hook is None
        inj.install(FaultPlan(events=(
            MessageFaults(at=0.0, duration=1.0, drop_prob=0.5),)))
        assert net.fault_hook is not None


class TestFaultInjectorLog:
    def test_event_log_returns_copies(self):
        env, net, hosts, inj = make_world()
        inj.install(FaultPlan(events=(HostCrash(host="a/h1", at=1.0),)))
        env.run(until=2.0)
        log = inj.event_log()
        log[0]["fault"] = "tampered"
        assert inj.events[0]["fault"] == "host-down"

    def test_log_json_deterministic_across_runs(self):
        def once():
            env, net, hosts, inj = make_world()
            inj.install(FaultPlan(events=(
                HostCrash(host="a/h1", at=2.0, recover_after=1.0),
                MessageFaults(at=0.0, duration=10.0, drop_prob=0.5),)))
            net.register("a/h1")
            net.register("b/h1")
            for i in range(20):
                net.send("a/h1", "b/h1", "ping", size_bytes=0)
            env.run(until=10.0)
            return inj.log_json()

        assert once() == once()

    def test_log_json_parses_back(self):
        env, net, hosts, inj = make_world()
        inj.install(FaultPlan(events=(HostCrash(host="a/h1", at=1.0),)))
        env.run(until=2.0)
        assert json.loads(inj.log_json()) == inj.events

    def test_actor_constant(self):
        assert FaultInjector.ACTOR == "faults"


# ---------------------------------------------------------------------------
# RetryPolicy + DataManager retries
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_defaults_give_exponential_ladder(self):
        policy = RetryPolicy()
        assert policy.schedule() == [1.0, 2.0, 4.0, 8.0]
        assert policy.total_wait_s == 15.0

    def test_timeout_capped(self):
        policy = RetryPolicy(timeout_s=1.0, max_attempts=10,
                             backoff_factor=2.0, max_timeout_s=5.0)
        assert policy.timeout_for(10) == 5.0

    def test_attempt_is_one_based(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().timeout_for(0)

    @pytest.mark.parametrize("kwargs", [
        dict(timeout_s=0.0),
        dict(max_attempts=0),
        dict(backoff_factor=0.5),
        dict(timeout_s=2.0, max_timeout_s=1.0),
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


def make_dm_pair(retry_policy=None):
    env = Environment()
    topo = Topology()
    topo.add_site("s1")
    topo.add_site("s2")
    topo.connect("s1", "s2", ATM_OC3)
    net = Network(env, topo)
    h1 = Host(spec=HostSpec(name="h1"), site="s1")
    h2 = Host(spec=HostSpec(name="h2"), site="s2")
    dm1 = DataManager(env, net, h1, retry_policy=retry_policy)
    dm2 = DataManager(env, net, h2)
    return env, net, dm1, dm2


def cross_spec() -> ChannelSpec:
    return ChannelSpec(execution_id="e1", src_node="a", src_port="out",
                       src_host="s1/h1", dst_node="b", dst_port="in",
                       dst_host="s2/h2")


class TestDataManagerRetry:
    def drop_setups_until(self, net, t_open):
        """Fault hook: drop channel-setup messages before *t_open*."""
        from repro.net.network import FaultAction

        def hook(msg):
            if msg.kind == "channel-setup" and msg.send_time < t_open:
                return FaultAction(drop=True)
            return None

        net.fault_hook = hook

    def test_retry_until_window_opens(self):
        env, net, dm1, dm2 = make_dm_pair()
        self.drop_setups_until(net, 2.5)
        proc = env.process(dm1.setup_channels([cross_spec()]))
        env.run(until=60.0)
        assert proc.ok and proc.value == 1
        # attempts at ~0, ~1, ~3 (third lands after the window opens)
        assert dm1.stats.retries == 2
        assert dm1.stats.setups_requested == 3
        assert dm1.stats.setups_abandoned == 0

    def test_abandon_after_exhaustion(self):
        env, net, dm1, dm2 = make_dm_pair()
        self.drop_setups_until(net, 1e9)  # never deliverable
        proc = env.process(dm1.setup_channels([cross_spec()]))
        env.run(until=60.0)
        assert proc.ok  # abandon is not an error by default
        assert dm1.stats.setups_abandoned == 1
        assert dm1.stats.retries == 3   # 4 attempts = 3 retries
        assert not dm1._pending_acks

    def test_no_retry_on_healthy_network(self):
        env, net, dm1, dm2 = make_dm_pair()
        proc = env.process(dm1.setup_channels([cross_spec()]))
        env.run(until=10.0)
        assert proc.ok
        assert dm1.stats.retries == 0
        assert dm1.stats.setups_requested == 1

    def test_custom_policy_respected(self):
        env, net, dm1, dm2 = make_dm_pair(
            retry_policy=RetryPolicy(timeout_s=0.5, max_attempts=2))
        self.drop_setups_until(net, 1e9)
        proc = env.process(dm1.setup_channels([cross_spec()]))
        env.run(until=60.0)
        assert proc.ok
        assert dm1.stats.setups_requested == 2
        assert dm1.stats.setups_abandoned == 1


# ---------------------------------------------------------------------------
# example smoke test (satellite: the demo can't rot)
# ---------------------------------------------------------------------------

class TestFaultToleranceExample:
    def test_crash_demo_runs(self, capsys):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).parent.parent / "examples" / \
            "fault_tolerance_demo.py"
        spec = importlib.util.spec_from_file_location("ft_demo", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # default problem size: smaller runs can finish before the
        # injected crash fires, which voids the demo's point
        module.crash_demo()
        out = capsys.readouterr().out
        assert "host-crash recovery" in out
        assert "status      : completed" in out
        assert "failure detected by group manager" in out
