"""Regression tests for the bugs reprolint's first run surfaced.

Two genuine determinism bugs came out of `python -m tools.reprolint src/`:

* ``wide_area_testbed`` derived each host's background-load mean from the
  salted builtin ``hash()`` — the load profile silently changed with
  ``PYTHONHASHSEED``, i.e. between any two interpreter invocations
  (DET001, ``workloads/environments.py``);
* ``SiteManager.distribute_allocation`` iterated the *set* returned by
  ``ResourceAllocationTable.hosts()``, so RAT portions were built and
  multicast in hash-seed-dependent order (DET001,
  ``runtime/control/site_manager.py``).

Both are asserted here by running the affected code under two different
``PYTHONHASHSEED`` values in subprocesses and demanding identical
results — exactly the property the original code lacked.
"""

from __future__ import annotations

import subprocess
import sys
import zlib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_under_hash_seed(code: str, hash_seed: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=REPO_ROOT,
        env={"PYTHONHASHSEED": hash_seed,
             "PYTHONPATH": str(REPO_ROOT / "src"),
             "PATH": "/usr/bin:/bin:/usr/local/bin"})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOAD_MEANS_CODE = """
from repro.workloads.environments import wide_area_testbed
vdce = wide_area_testbed(seed=7, n_sites=3, hosts_per_site=3,
                         with_loads=True)
for model in vdce.load_models:
    print(f"{model.host.address} {model.mean:.6f}")
"""


def test_background_load_means_independent_of_hash_seed() -> None:
    first = run_under_hash_seed(LOAD_MEANS_CODE, "1")
    second = run_under_hash_seed(LOAD_MEANS_CODE, "2")
    assert first == second
    assert first.strip(), "expected at least one load model"


def test_background_load_means_follow_crc32_buckets() -> None:
    out = run_under_hash_seed(LOAD_MEANS_CODE, "0")
    for line in out.strip().splitlines():
        address, mean = line.split()
        bucket = zlib.crc32(address.encode("utf-8")) % 5
        assert abs(float(mean) - (0.2 + 0.6 * bucket / 5.0)) < 1e-9


DISTRIBUTE_ORDER_CODE = """
from repro.obs import Observability
from repro.workloads.environments import quiet_testbed
from repro.workloads.applications import linear_solver_graph

vdce = quiet_testbed(seed=11, obs=Observability())
vdce.start()
graph = linear_solver_graph(vdce.registry, n=40)
process, run = vdce.submit(graph, sorted(vdce.world.sites)[0],
                           k_remote_sites=1)
vdce.env.run(until=500.0)
for rec in vdce.tracer.records:
    print(rec)
print("completions", sorted(run.completions))
print("makespan", f"{run.makespan:.9f}")
"""


def test_allocation_distribution_order_independent_of_hash_seed() -> None:
    """The full message trace must be byte-identical across hash seeds.

    Before the fix, `distribute_allocation` iterated `table.hosts()` (a
    set), so portion multicast order — and with it the entire downstream
    message interleaving — depended on PYTHONHASHSEED.
    """
    first = run_under_hash_seed(DISTRIBUTE_ORDER_CODE, "1")
    second = run_under_hash_seed(DISTRIBUTE_ORDER_CODE, "2")
    assert "completions" in first
    assert first == second


class _ReversedIterSet(set):
    """A set that iterates in descending order — the adversarial case a
    hash-seed change could produce."""

    def __iter__(self):
        return iter(sorted(super().__iter__(), reverse=True))


def test_distribution_order_sorted_regardless_of_set_order(monkeypatch):
    """`distribute_allocation` must emit portions in sorted host order
    even when `table.hosts()` iterates adversarially.

    This is the in-process regression probe: with the original unsorted
    loop, the portion dicts inherit whatever order the set yields.
    """
    from repro.net.network import Network
    from repro.scheduling.allocation import ResourceAllocationTable
    from repro.workloads.applications import fork_join_graph
    from repro.workloads.environments import quiet_testbed

    vdce = quiet_testbed(seed=3)
    vdce.start()
    graph = fork_join_graph(vdce.registry, width=8)
    sites = sorted(vdce.world.sites)
    for i, nid in enumerate(graph.nodes):
        graph.node(nid).properties.preferred_site = sites[i % len(sites)]
    sm = vdce.site_managers["syracuse"]
    proc = vdce.env.process(sm.schedule_application(graph, k_remote_sites=1))
    vdce.run(until=30)
    assert proc.triggered and proc.ok
    table, _report = proc.value
    assert len(table.hosts()) > 1

    class PerverseTable(ResourceAllocationTable):
        def hosts(self):
            return _ReversedIterSet(super().hosts())

    table.__class__ = PerverseTable

    orders: list[list[str]] = []
    monkeypatch.setattr(
        sm, "_push_to_groups",
        lambda portions, *args, **kwargs: orders.append(list(portions)))
    monkeypatch.setattr(
        Network, "send",
        lambda self, src, dst, kind, payload=None, **kwargs: orders.append(
            list(payload["portions"]) if payload and "portions" in payload
            else []))

    sm.distribute_allocation(table, "exec-regression", graph)
    assert orders, "distribution produced no portions"
    for order in orders:
        assert order == sorted(order), (
            f"portion order {order} leaked set iteration order")
