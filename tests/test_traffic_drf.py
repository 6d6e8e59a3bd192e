"""DRF allocator and the fairness property.

The headline property (the ISSUE's acceptance bound): **no tenant sits
below its fair share while another tenant exceeds its fair share and
the first has pending demand**.  Progressive filling guarantees it
decision-by-decision; the replay engine audits every dispatch and
counts violations — these tests pin both the unit mechanics and the
end-to-end audit at zero.
"""

import pytest

from repro.repository import TenantRecord
from repro.traffic import DRFAllocator, fairness_stats, make_tenants


def allocator(tenants=None, procs=100, mem=100_000.0):
    return DRFAllocator(capacity_procs=procs, capacity_memory_mb=mem,
                        tenants=tenants or make_tenants(3))


class TestAllocator:
    def test_demand_and_bookkeeping(self):
        alloc = allocator()
        demand = (4.0, 1024.0)
        alloc.allocate("t00", demand)
        assert alloc.allocated("t00") == demand
        assert alloc.free() == (96.0, 98_976.0)
        alloc.release("t00", demand)
        assert alloc.allocated("t00") == (0.0, 0.0)

    def test_release_more_than_allocated_raises(self):
        alloc = allocator()
        with pytest.raises(ValueError, match="released more"):
            alloc.release("t00", (1.0, 0.0))

    def test_dominant_share_is_max_axis_over_weight(self):
        tenants = {"a": TenantRecord(name="a", weight=2.0),
                   "b": TenantRecord(name="b")}
        alloc = allocator(tenants)
        alloc.allocate("a", (10.0, 50_000.0))  # memory-dominant: 0.5
        assert alloc.dominant_share("a") == pytest.approx(0.5 / 2.0)
        alloc.allocate("b", (20.0, 1000.0))    # cpu-dominant: 0.2
        assert alloc.dominant_share("b") == pytest.approx(0.2)

    def test_pick_progressive_filling(self):
        alloc = allocator()
        alloc.allocate("t00", (50.0, 100.0))
        alloc.allocate("t01", (10.0, 100.0))
        assert alloc.pick(["t00", "t01", "t02"]) == "t02"
        alloc.allocate("t02", (20.0, 100.0))
        assert alloc.pick(["t00", "t01", "t02"]) == "t01"
        assert alloc.pick([]) is None

    def test_pick_name_tie_break(self):
        alloc = allocator()
        assert alloc.pick(["t02", "t01", "t00"]) == "t00"

    def test_quota_and_capacity_predicates(self):
        tenants = {"q": TenantRecord(name="q", quota_procs=8,
                                     quota_memory_mb=4096.0)}
        alloc = DRFAllocator(100, 100_000.0, tenants)
        assert alloc.can_allocate("q", (8.0, 4096.0))
        assert not alloc.can_allocate("q", (9.0, 100.0))
        assert not alloc.can_allocate("q", (1.0, 5000.0))
        alloc.allocate("q", (8.0, 1.0))
        assert not alloc.can_allocate("q", (1.0, 1.0))  # quota exhausted
        # feasible() ignores current allocation: could-ever-run
        assert alloc.feasible("q", (8.0, 4096.0))
        assert not alloc.feasible("q", (9.0, 1.0))
        assert not alloc.feasible("q", (200.0, 1.0))  # beyond capacity

    def test_weighted_pick_prefers_heavier_tenant(self):
        tenants = {"heavy": TenantRecord(name="heavy", weight=3.0),
                   "light": TenantRecord(name="light", weight=1.0)}
        alloc = DRFAllocator(90, 90_000.0, tenants)
        # equal raw allocation: the heavier tenant's weighted share is
        # lower, so it goes next
        alloc.allocate("heavy", (30.0, 100.0))
        alloc.allocate("light", (30.0, 100.0))
        assert alloc.pick(["heavy", "light"]) == "heavy"


class TestFairnessProperty:
    def test_no_starvation_below_fair_share(self):
        """The acceptance property, adversarially: one greedy tenant
        floods, two modest tenants trickle; whenever capacity frees,
        the lowest-share tenant with pending demand is served first, so
        the greedy tenant can never hold above-fair-share allocation
        while a below-share tenant waits."""
        tenants = make_tenants(3)
        alloc = DRFAllocator(12, 12_000.0, tenants)
        pending = {"t00": 30, "t01": 6, "t02": 6}  # t00 floods
        running = []
        violations = 0
        for _step in range(200):
            # complete the oldest job to free capacity
            if running and (_step % 2 or not any(pending.values())):
                tenant, demand = running.pop(0)
                alloc.release(tenant, demand)
            demand = (2.0, 512.0)
            eligible = [t for t in sorted(pending)
                        if pending[t] and alloc.can_allocate(t, demand)]
            pick = alloc.pick(eligible)
            if pick is None:
                continue
            min_share = min(alloc.dominant_share(t) for t in eligible)
            if alloc.dominant_share(pick) > min_share + 1e-12:
                violations += 1
            pending[pick] -= 1
            alloc.allocate(pick, demand)
            running.append((pick, demand))
        assert violations == 0
        assert pending["t01"] == 0 and pending["t02"] == 0, \
            "modest tenants starved behind the flooding tenant"

    def test_fairness_stats(self):
        stats = fairness_stats({"a": 1.0, "b": 1.0, "c": 1.0})
        assert stats["jain_index"] == pytest.approx(1.0)
        skewed = fairness_stats({"a": 3.0, "b": 0.0, "c": 0.0})
        assert skewed["jain_index"] == pytest.approx(1 / 3)
        assert skewed["max_share"] == 3.0
        empty = fairness_stats({})
        assert empty["jain_index"] == 1.0


class TestMakeTenants:
    def test_weight_skew_spread(self):
        tenants = make_tenants(4, weight_skew=1.0)
        weights = [tenants[f"t{i:02d}"].weight for i in range(4)]
        assert weights[0] == pytest.approx(1.0)
        assert weights[-1] == pytest.approx(2.0)
        assert weights == sorted(weights)

    def test_quota_fields_forwarded(self):
        tenants = make_tenants(2, quota_procs=8, rate_per_s=3.0,
                               burst=5, max_pending=10)
        rec = tenants["t01"]
        assert rec.quota_procs == 8 and rec.rate_per_s == 3.0
        assert rec.burst == 5 and rec.max_pending == 10
