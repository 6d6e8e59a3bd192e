"""The admission controller: reject / queue / throttle semantics.

Determinism contract: every decision — including token-bucket refill
instants and exponential-backoff retries — is a pure function of the
seed and the simulated clock (``Environment.call_later``), never of
wall time.
"""

from repro.obs import Observability
from repro.repository import TenantRecord
from repro.simcore import Environment
from repro.traffic import (
    AdmissionController,
    DRFAllocator,
    JobRequest,
    make_tenants,
)


def req(job="j1", nproc=2, submit=0.0, duration=10.0, user="u0001",
        tenant="t00"):
    return JobRequest(job=job, nproc=nproc, submit_time_s=submit,
                      duration_s=duration, user=user, tenant=tenant)


def controller(env=None, tenants=None, capacity=64, obs=None, **kwargs):
    env = env or Environment()
    tenants = tenants if tenants is not None else make_tenants(2)
    alloc = DRFAllocator(capacity_procs=capacity,
                         capacity_memory_mb=capacity * 512.0,
                         tenants=tenants)
    admitted = []
    ctrl = AdmissionController(
        env, tenants, alloc,
        demand_fn=lambda r: (float(r.nproc), 256.0 * r.nproc),
        on_admit=admitted.append,
        obs=obs or Observability(enabled=False), **kwargs)
    return env, ctrl, admitted


class TestOutcomes:
    def test_admit_queues_and_notifies(self):
        env, ctrl, admitted = controller()
        assert ctrl.submit(req()) == "admitted"
        assert admitted == ["t00"]
        assert ctrl.pending("t00") == 1
        assert ctrl.total_pending() == 1
        stats = ctrl.stats["t00"]
        assert stats.arrivals == stats.admitted == 1
        assert stats.max_queue_depth == 1

    def test_unknown_tenant_rejected_but_accounted(self):
        env, ctrl, _ = controller()
        assert ctrl.submit(req(tenant="ghost")) == "rejected"
        stats = ctrl.stats["ghost"]
        assert stats.arrivals == 1
        assert stats.rejected["unknown-tenant"] == 1

    def test_infeasible_demand_rejected(self):
        env, ctrl, _ = controller(capacity=4)
        assert ctrl.submit(req(nproc=8)) == "rejected"
        assert ctrl.stats["t00"].rejected["infeasible"] == 1

    def test_quota_infeasible_rejected(self):
        tenants = {"t00": TenantRecord(name="t00", quota_procs=2)}
        env, ctrl, _ = controller(tenants=tenants)
        assert ctrl.submit(req(nproc=4)) == "rejected"
        assert ctrl.stats["t00"].rejected["infeasible"] == 1
        # within quota: admitted even though the queue is deep
        assert ctrl.submit(req(job="j2", nproc=2)) == "admitted"

    def test_queue_full_backpressure(self):
        tenants = make_tenants(1, max_pending=2)
        env, ctrl, _ = controller(tenants=tenants)
        assert ctrl.submit(req(job="a")) == "admitted"
        assert ctrl.submit(req(job="b")) == "admitted"
        assert ctrl.submit(req(job="c")) == "rejected"
        assert ctrl.stats["t00"].rejected["queue-full"] == 1
        assert ctrl.pending("t00") == 2


class TestTokenBucket:
    def test_burst_then_throttle(self):
        tenants = make_tenants(1, rate_per_s=1.0, burst=2)
        env, ctrl, _ = controller(tenants=tenants)
        assert ctrl.submit(req(job="a")) == "admitted"
        assert ctrl.submit(req(job="b")) == "admitted"
        assert ctrl.submit(req(job="c")) == "throttled"
        assert ctrl.stats["t00"].throttled == 1
        # the deferred submission retries itself to admission
        env.run()
        assert ctrl.stats["t00"].admitted == 3
        assert ctrl.pending("t00") == 3

    def test_sim_time_refill(self):
        tenants = make_tenants(1, rate_per_s=2.0, burst=1)
        env, ctrl, _ = controller(tenants=tenants)
        assert ctrl.submit(req(job="a")) == "admitted"
        assert ctrl.submit(req(job="b")) == "throttled"
        env.run()  # drains the retry chain
        assert env.now >= 0.5  # one token at 2/s
        assert ctrl.stats["t00"].admitted == 2

    def test_throttle_exhausted_rejects(self):
        # a lone retry always finds a token (the retry delay covers the
        # refill), so exhaustion needs contention: five jobs race a
        # 0.01/s bucket and only one token appears per retry round
        tenants = make_tenants(1, rate_per_s=0.01, burst=1)
        env, ctrl, _ = controller(tenants=tenants, max_attempts=3)
        assert ctrl.submit(req(job="a")) == "admitted"  # burst token
        for job in ("b", "c", "d", "e"):
            assert ctrl.submit(req(job=job)) == "throttled"
        env.run()
        stats = ctrl.stats["t00"]
        assert stats.admitted == 3  # a + one winner per retry round
        assert stats.rejected["throttle-exhausted"] == 2
        assert stats.admitted + sum(stats.rejected.values()) \
            == stats.arrivals

    def test_backoff_schedule_deterministic(self):
        def trace():
            tenants = make_tenants(1, rate_per_s=0.5, burst=1)
            env, ctrl, _ = controller(tenants=tenants)
            ctrl.submit(req(job="a"))
            ctrl.submit(req(job="b"))
            ctrl.submit(req(job="c"))
            times = []
            original = ctrl._retry

            def spy(deferred):
                times.append(env.now)
                original(deferred)

            ctrl._retry = spy
            env.run()
            return times, ctrl.stats["t00"].admitted

        first = trace()
        second = trace()
        assert first == second
        assert first[1] == 3  # all eventually admitted
        assert first[0] == sorted(first[0])

    def test_arrivals_equals_admitted_plus_rejected(self):
        # the accounting invariant check_report relies on: throttles
        # are transient, every arrival terminally resolves
        tenants = make_tenants(2, rate_per_s=2.0, burst=1,
                               max_pending=5)
        env, ctrl, _ = controller(tenants=tenants)
        for i in range(40):
            ctrl.submit(req(job=f"j{i}", tenant=f"t{i % 2:02d}"))
        env.run()
        for stats in ctrl.stats.values():
            assert stats.admitted + sum(stats.rejected.values()) \
                == stats.arrivals


class TestObsMirroring:
    def test_counters_match_stats(self):
        obs = Observability()
        tenants = make_tenants(1, rate_per_s=1.0, burst=1, max_pending=1)
        env, ctrl, _ = controller(tenants=tenants, obs=obs)
        for i in range(6):
            ctrl.submit(req(job=f"j{i}"))
        env.run()
        stats = ctrl.stats["t00"]
        metrics = obs.metrics
        assert metrics.counter("traffic_arrivals_total").total() \
            == stats.arrivals
        assert metrics.counter("traffic_admitted_total").total() \
            == stats.admitted
        assert metrics.counter("traffic_throttled_total").total() \
            == stats.throttled
        assert metrics.counter("traffic_rejected_total").total() \
            == sum(stats.rejected.values())
