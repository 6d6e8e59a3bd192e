"""Property-based tests for dynamic rescheduling (seeded-random loops).

Two layers: the :class:`Rescheduler` unit property (a replacement never
lands on an excluded/failed host and its prediction is finite), and the
end-to-end property (after a single mid-run host crash, every rescheduled
task avoids the dead host and the run still finishes with a finite
makespan).
"""

import math

import numpy as np
import pytest

from repro.faults import FaultPlan, HostCrash
from repro.obs import Observability
from repro.scheduling.allocation import AllocationEntry
from repro.scheduling.host_selection import HostSelector
from repro.scheduling.rescheduling import Rescheduler
from repro.util.errors import NoFeasibleHostError
from repro.workloads import linear_solver_graph, quiet_testbed

N_TRIALS = 100


@pytest.fixture(scope="module")
def world():
    v = quiet_testbed(seed=17)
    v.start()
    v.warm_up(10.0)  # monitors populate the dynamic repository columns
    graph = linear_solver_graph(v.registry, n=60)
    return v, graph


def rescheduler_for(v):
    """A Rescheduler over one fresh selector per site of *v*."""
    return Rescheduler({site: HostSelector(repo)
                        for site, repo in v.repositories.items()})


class TestReschedulerProperties:
    def test_replacement_never_on_failed_or_current_host(self, world):
        v, graph = world
        hosts = sorted(h.address for h in v.world.all_hosts())
        nodes = list(graph.nodes)
        rng = np.random.default_rng(2024)
        rescheduler = rescheduler_for(v)
        for _ in range(N_TRIALS):
            node = graph.node(nodes[int(rng.integers(len(nodes)))])
            current_host = hosts[int(rng.integers(len(hosts)))]
            failed = hosts[int(rng.integers(len(hosts)))]
            current = AllocationEntry(
                node_id=node.node_id, task_name=node.task_name,
                site=current_host.split("/")[0], hosts=(current_host,),
                predicted_time_s=1.0)
            entry = rescheduler.reschedule(node, current,
                                           exclude_hosts={failed})
            assert failed not in entry.hosts
            assert current_host not in entry.hosts
            assert math.isfinite(entry.predicted_time_s)
            assert entry.predicted_time_s > 0

    def test_excluding_all_but_one_forces_that_host(self, world):
        v, graph = world
        hosts = sorted(h.address for h in v.world.all_hosts())
        rng = np.random.default_rng(7)
        rescheduler = rescheduler_for(v)
        node = graph.node("lu")
        for _ in range(20):
            survivor = hosts[int(rng.integers(len(hosts)))]
            doomed = [h for h in hosts if h != survivor]
            current = AllocationEntry(
                node_id=node.node_id, task_name=node.task_name,
                site=doomed[0].split("/")[0], hosts=(doomed[0],),
                predicted_time_s=1.0)
            entry = rescheduler.reschedule(
                node, current, exclude_hosts=set(doomed))
            assert entry.hosts == (survivor,)

    def test_excluding_every_host_raises_typed_error(self, world):
        v, graph = world
        hosts = {h.address for h in v.world.all_hosts()}
        node = graph.node("lu")
        current = AllocationEntry(
            node_id=node.node_id, task_name=node.task_name,
            site="syracuse", hosts=(sorted(hosts)[0],),
            predicted_time_s=1.0)
        with pytest.raises(NoFeasibleHostError):
            node_entry = rescheduler_for(v).reschedule(
                node, current, exclude_hosts=hosts)
            del node_entry


class TestEndToEndCrashProperty:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_single_crash_never_reassigns_to_dead_host(self, seed):
        v = quiet_testbed(seed=seed, obs=Observability())
        v.start()
        graph = linear_solver_graph(v.registry, n=200)
        sites = sorted(v.world.sites)
        for i, nid in enumerate(graph.nodes):
            graph.node(nid).properties.preferred_site = sites[i % 2]
        process, run = v.submit(graph, "syracuse", k_remote_sites=1)
        while run.table is None:
            v.env.run(until=v.now + 0.5)
        leaders = {f"{s.name}/{s.group_leader(g)}"
                   for s in v.world.sites.values() for g in s.groups}
        used = sorted({e.host for e in run.table.entries.values()}
                      - leaders)
        assert used, "test premise broken: all tasks on group leaders"
        victim = used[int(np.random.default_rng(seed).integers(len(used)))]
        v.apply_fault_plan(FaultPlan(events=(
            HostCrash(host=victim, at=v.now + 5.0),
        )))
        deadline = v.now + 2000
        while not process.triggered and v.now < deadline:
            v.env.run(until=v.now + 5.0)
        assert run.status == "completed"
        assert math.isfinite(run.makespan) and run.makespan > 0
        moved = [r for r in v.tracer.query(category="vdce:rescheduled")]
        assert moved, "crash produced no rescheduling"
        for record in moved:
            assert record.detail["to"] != victim
