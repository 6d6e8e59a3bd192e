"""The Observability handle is the one instrumentation switch.

A VDCE built without an enabled :class:`~repro.obs.Observability`
records nothing: every trace, span and metric record site sits behind
one ``if obs.enabled:`` guard, so an unobserved run makes zero calls
into the recorders and the shared :data:`~repro.obs.OBS_OFF` handle
stays empty, through failover and membership churn as well.  Reading
the trace of such a run is a configuration error rather than an empty
log.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, LinkFlap, ServerCrash
from repro.obs import OBS_OFF, Observability
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.spans import SpanTracker
from repro.simcore.trace import Tracer
from repro.util.errors import ConfigurationError
from repro.workloads import linear_solver_graph, quiet_testbed

#: every entry point a trace, span or metric record goes through
RECORDERS = ((Tracer, "record"), (SpanTracker, "begin"), (Counter, "inc"),
             (Gauge, "set"), (Gauge, "add"), (Histogram, "observe"))

#: the instruments Network.set_observability registers on its handle
NETWORK_INSTRUMENTS = ("net_messages_total", "net_bytes_total",
                       "net_dropped_total", "net_delivery_delay_seconds")


@pytest.fixture
def record_calls(monkeypatch):
    """Wrap every recorder entry point with a call counter."""
    calls = {f"{cls.__name__}.{name}": 0 for cls, name in RECORDERS}
    for cls, name in RECORDERS:
        original = getattr(cls, name)
        key = f"{cls.__name__}.{name}"

        def counted(self, *args, _original=original, _key=key, **kwargs):
            calls[_key] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return calls


def solve(vdce, churn: bool = False) -> None:
    """Run a cross-site linear solver to completion.

    With *churn*, membership and failover are on for both sites, the
    submitting site's server crashes while the solver runs and the WAN
    link flaps once afterwards, so a promotion with its execution
    rebuild, quarantines and rejoins run too.
    """
    vdce.start()
    sites = sorted(vdce.world.sites)
    if churn:
        vdce.enable_membership()
        for site in sites:
            vdce.enable_failover(site, ["h1", "h2"])
        vdce.apply_fault_plan(FaultPlan((
            ServerCrash(sites[0], at=0.5),
            LinkFlap(sites[0], sites[1], at=20.0, down_s=10.0, cycles=1))))
    graph = linear_solver_graph(vdce.registry, n=60)
    for i, nid in enumerate(graph.nodes):
        graph.node(nid).properties.preferred_site = sites[i % len(sites)]
    run = vdce.run_application(graph, sites[0], k_remote_sites=1,
                               max_sim_time_s=600)
    assert run.status == "completed"
    if churn:
        vdce.run(until=50.0)
        assert vdce.recovery.failovers == 1
        events = [event["event"] for daemon in vdce.federation.daemons.values()
                  for event in daemon.events]
        assert "quarantine" in events and "rejoin" in events


class TestUnobservedRun:
    @pytest.mark.parametrize("churn", [False, True],
                             ids=["quiet", "failover-and-flap"])
    def test_records_nothing(self, record_calls, churn):
        vdce = quiet_testbed(seed=3)
        assert vdce.obs is OBS_OFF
        solve(vdce, churn)
        assert vdce.network.stats.messages > 0
        assert record_calls == dict.fromkeys(record_calls, 0)

    def test_off_handle_holds_instruments_but_no_samples(self):
        solve(quiet_testbed(seed=3))
        assert OBS_OFF.trace.records == []
        assert len(OBS_OFF.spans) == 0
        names = [metric.name for metric in OBS_OFF.metrics.collect()]
        assert set(NETWORK_INSTRUMENTS) <= set(names)
        for metric in OBS_OFF.metrics.collect():
            assert metric.samples() == [], metric.name

    def test_tracer_refuses_an_unobserved_vdce(self):
        for obs in (None, Observability(enabled=False)):
            vdce = quiet_testbed(seed=3, obs=obs)
            with pytest.raises(ConfigurationError):
                vdce.tracer


class TestObservedRun:
    def test_trace_lives_on_the_handle(self, record_calls):
        obs = Observability()
        vdce = quiet_testbed(seed=3, obs=obs)
        solve(vdce)
        assert vdce.tracer is obs.trace
        assert record_calls["Tracer.record"] == len(obs.trace.records) > 0
        assert record_calls["SpanTracker.begin"] == len(obs.spans) > 0
        # spans live only in the span store, never in the flat trace
        assert not any(category.startswith("span:")
                       for category in obs.trace.categories())

    def test_reset_clears_the_trace(self):
        obs = Observability()
        obs.trace.record(0.0, "x", "a")
        obs.reset()
        assert obs.trace.records == []
