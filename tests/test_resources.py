"""Tests for hosts, sites and load models."""

import numpy as np
import pytest

from repro.net import ATM_OC3
from repro.resources import (
    Host,
    HostSpec,
    OnOffLoad,
    RandomWalkLoad,
    Site,
    SpikeLoad,
    VDCEnvironment,
    build_environment,
)
from repro.util.errors import ConfigurationError, NotRegisteredError


class TestHostSpec:
    def test_defaults(self):
        spec = HostSpec(name="h1")
        assert spec.arch == "sparc" and spec.byte_order == "big"

    def test_unknown_arch_rejected(self):
        with pytest.raises(ConfigurationError):
            HostSpec(name="h1", arch="vax")

    def test_unknown_os_rejected(self):
        with pytest.raises(ConfigurationError):
            HostSpec(name="h1", os="plan9")

    def test_bad_cpu_factor(self):
        with pytest.raises(ConfigurationError):
            HostSpec(name="h1", cpu_factor=0)

    def test_x86_little_endian(self):
        assert HostSpec(name="h", arch="x86", os="linux").byte_order == "little"


class TestHost:
    def make(self, **kw) -> Host:
        return Host(spec=HostSpec(name="h1", memory_mb=100, **kw), site="s1")

    def test_address(self):
        assert self.make().address == "s1/h1"

    def test_slash_in_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Host(spec=HostSpec(name="a/b"), site="s1")

    def test_task_accounting(self):
        h = self.make()
        h.task_started(load=1.0, memory_mb=30)
        assert h.running_tasks == 1
        assert h.cpu_load == pytest.approx(1.0)
        assert h.memory_available_mb == pytest.approx(70)
        h.task_finished(load=1.0, memory_mb=30)
        assert h.running_tasks == 0
        assert h.cpu_load == 0.0
        assert h.memory_available_mb == 100

    def test_finish_without_start_raises(self):
        with pytest.raises(ConfigurationError):
            self.make().task_finished()

    def test_slowdown_dedicated(self):
        assert self.make().slowdown() == 1.0

    def test_slowdown_grows_with_load(self):
        h = self.make()
        h.true_load = 1.0
        assert h.slowdown() == pytest.approx(2.0)

    def test_slowdown_memory_overflow_penalty(self):
        h = self.make()
        base = h.slowdown()
        assert h.slowdown(extra_memory_mb=150) > base

    def test_memory_available_never_negative(self):
        h = self.make()
        h.memory_used_mb = 500
        assert h.memory_available_mb == 0.0


class TestSite:
    def test_add_and_get_host(self):
        s = Site("s1")
        s.add_host(HostSpec(name="h1"))
        assert s.host("h1").address == "s1/h1"

    def test_duplicate_host_rejected(self):
        s = Site("s1")
        s.add_host(HostSpec(name="h1"))
        with pytest.raises(ConfigurationError):
            s.add_host(HostSpec(name="h1"))

    def test_unknown_host(self):
        with pytest.raises(NotRegisteredError):
            Site("s1").host("ghost")

    def test_groups_and_leader(self):
        s = Site("s1")
        s.add_host(HostSpec(name="hb", group="g1"))
        s.add_host(HostSpec(name="ha", group="g1"))
        s.add_host(HostSpec(name="hc", group="g2"))
        assert s.groups == {"g1": ["hb", "ha"], "g2": ["hc"]}
        assert s.group_leader("g1") == "ha"  # deterministic: sorted first

    def test_remove_host_clears_empty_group(self):
        s = Site("s1")
        s.add_host(HostSpec(name="h1", group="g1"))
        s.remove_host("h1")
        assert s.groups == {}
        with pytest.raises(NotRegisteredError):
            s.group_leader("g1")

    def test_up_hosts_filters_down(self):
        s = Site("s1")
        s.add_host(HostSpec(name="h1"))
        s.add_host(HostSpec(name="h2"))
        s.host("h1").up = False
        assert [h.name for h in s.up_hosts()] == ["h2"]

    def test_invalid_site_name(self):
        with pytest.raises(ConfigurationError):
            Site("a/b")


class TestVDCEnvironment:
    def build(self) -> VDCEnvironment:
        return build_environment(
            site_hosts={
                "s1": [HostSpec(name="h1"), HostSpec(name="h2")],
                "s2": [HostSpec(name="h1")],
            },
            wan_links=[("s1", "s2", ATM_OC3)],
            seed=1,
        )

    def test_build(self):
        vdce = self.build()
        assert len(vdce.all_hosts()) == 3
        assert vdce.host("s2/h1").site == "s2"
        assert vdce.host("s1", "h2").name == "h2"

    def test_duplicate_site_rejected(self):
        vdce = self.build()
        with pytest.raises(ConfigurationError):
            vdce.add_site("s1")

    def test_host_bad_address(self):
        vdce = self.build()
        with pytest.raises(NotRegisteredError):
            vdce.host("s1")

    def test_network_is_up_tracks_host_state(self):
        vdce = self.build()
        assert vdce.network.is_up("s1/h1")
        vdce.host("s1/h1").up = False
        assert not vdce.network.is_up("s1/h1")
        assert vdce.network.is_up("s1/server")


class TestLoadModels:
    def test_random_walk_stays_nonnegative_and_moves(self):
        vdce = VDCEnvironment(seed=3)
        vdce.add_site("s1")
        h = vdce.add_host("s1", HostSpec(name="h1"))
        RandomWalkLoad(vdce.env, h, vdce.rng.stream("load"), mean=0.5)
        samples = []

        def sampler(env):
            for _ in range(50):
                yield env.timeout(1.0)
                samples.append(h.true_load)

        vdce.env.process(sampler(vdce.env))
        vdce.run(until=60)
        assert all(s >= 0 for s in samples)
        assert len(set(round(s, 6) for s in samples)) > 5  # actually varies

    def test_random_walk_reverts_to_mean(self):
        vdce = VDCEnvironment(seed=3)
        vdce.add_site("s1")
        h = vdce.add_host("s1", HostSpec(name="h1"))
        RandomWalkLoad(vdce.env, h, vdce.rng.stream("load"),
                       mean=2.0, volatility=0.01)
        vdce.run(until=200)
        assert 1.5 < h.true_load < 2.5

    def test_onoff_toggles(self):
        vdce = VDCEnvironment(seed=5)
        vdce.add_site("s1")
        h = vdce.add_host("s1", HostSpec(name="h1"))
        OnOffLoad(vdce.env, h, vdce.rng.stream("load"), on_load=1.0,
                  mean_on_s=5, mean_off_s=5)
        seen = set()

        def sampler(env):
            for _ in range(200):
                yield env.timeout(1.0)
                seen.add(h.true_load)

        vdce.env.process(sampler(vdce.env))
        vdce.run(until=250)
        assert 0.0 in seen and 1.0 in seen

    def test_spike_schedule(self):
        vdce = VDCEnvironment(seed=0)
        vdce.add_site("s1")
        h = vdce.add_host("s1", HostSpec(name="h1"))
        SpikeLoad(vdce.env, h, spikes=[(10.0, 5.0, 3.0)])
        vdce.run(until=9.9)
        assert h.true_load == 0.0
        vdce.run(until=12.0)
        assert h.true_load == 3.0
        vdce.run(until=20.0)
        assert h.true_load == 0.0

    def test_invalid_spike_rejected(self):
        vdce = VDCEnvironment(seed=0)
        vdce.add_site("s1")
        h = vdce.add_host("s1", HostSpec(name="h1"))
        with pytest.raises(ConfigurationError):
            SpikeLoad(vdce.env, h, spikes=[(-1.0, 5.0, 1.0)])

    def test_model_stop(self):
        vdce = VDCEnvironment(seed=0)
        vdce.add_site("s1")
        h = vdce.add_host("s1", HostSpec(name="h1"))
        m = RandomWalkLoad(vdce.env, h, vdce.rng.stream("load"))
        vdce.run(until=5)
        m.stop()
        vdce.run(until=6)
        assert not m.process.is_alive


class TestTraceLoad:
    def make_host(self):
        from repro.resources import VDCEnvironment
        vdce = VDCEnvironment(seed=0)
        vdce.add_site("s1")
        return vdce, vdce.add_host("s1", HostSpec(name="h1"))

    def test_replays_points_in_order(self):
        from repro.resources import TraceLoad
        vdce, h = self.make_host()
        TraceLoad(vdce.env, h, [(0.0, 0.2), (5.0, 1.0), (10.0, 0.4)])
        vdce.run(until=1.0)
        assert h.true_load == 0.2
        vdce.run(until=6.0)
        assert h.true_load == 1.0
        vdce.run(until=11.0)
        assert h.true_load == 0.4

    def test_holds_final_value_without_repeat(self):
        from repro.resources import TraceLoad
        vdce, h = self.make_host()
        TraceLoad(vdce.env, h, [(0.0, 0.7)])
        vdce.run(until=100.0)
        assert h.true_load == 0.7

    def test_repeat_loops(self):
        from repro.resources import TraceLoad
        vdce, h = self.make_host()
        TraceLoad(vdce.env, h, [(0.0, 0.1), (2.0, 0.9)], repeat=True)
        seen = set()

        def sampler(env):
            for _ in range(40):
                yield env.timeout(0.5)
                seen.add(round(h.true_load, 3))

        vdce.env.process(sampler(vdce.env))
        vdce.run(until=25.0)
        assert {0.1, 0.9} <= seen  # both values recur across loops

    def test_validation(self):
        from repro.resources import TraceLoad
        vdce, h = self.make_host()
        with pytest.raises(ConfigurationError):
            TraceLoad(vdce.env, h, [])
        with pytest.raises(ConfigurationError):
            TraceLoad(vdce.env, h, [(5.0, 0.1), (1.0, 0.2)])
        with pytest.raises(ConfigurationError):
            TraceLoad(vdce.env, h, [(0.0, -1.0)])


class TestDiurnalTrace:
    def test_shape_and_bounds(self):
        from repro.resources import diurnal_trace
        trace = diurnal_trace(peak_load=2.0, base_load=0.2, day_s=100.0,
                              samples=20, noise=0.0)
        assert len(trace) == 20
        times = [t for t, _ in trace]
        loads = [v for _, v in trace]
        assert times == sorted(times)
        assert min(loads) >= 0.19 and max(loads) <= 2.01
        # the bulge peaks mid-day
        assert loads.index(max(loads)) in range(8, 13)

    def test_invalid_peak(self):
        from repro.resources import diurnal_trace
        with pytest.raises(ConfigurationError):
            diurnal_trace(peak_load=0.1, base_load=0.5)

    def test_drives_trace_load_end_to_end(self):
        from repro.resources import TraceLoad, diurnal_trace
        from repro.workloads import quiet_testbed
        v = quiet_testbed(seed=99)
        trace = diurnal_trace(day_s=200.0, samples=10, noise=0.0)
        TraceLoad(v.env, v.world.host("syracuse/h0"), trace, repeat=True)
        v.start()
        v.run(until=150.0)
        rec = v.repositories["syracuse"].resource_performance.get(
            "syracuse/h0")
        assert rec.load_window  # monitors picked the replayed loads up
