#!/usr/bin/env python
"""Wall-clock performance report for the reproduction's hot paths.

Runs the substrate micro-benchmarks (event kernel, store handoff,
prediction sweep, scheduler walk and rescheduling, message fan-out,
trace replay and admission), then writes ``BENCH_perf.json`` with
ops/s, wall seconds, and an environment fingerprint.  End-to-end
throughput is measured by ``perfbench/`` on thousands of tasks; that a
disabled ``Observability`` records nothing is checked exactly by
``tests/test_obs_switch.py``.

Usage::

    PYTHONPATH=src python tools/perf_report.py                 # refresh BENCH_perf.json
    PYTHONPATH=src python tools/perf_report.py --check BENCH_perf.json
    PYTHONPATH=src python tools/perf_report.py --quick -o /tmp/p.json

``--check`` compares the fresh run against a committed baseline and
exits non-zero when any benchmark's throughput regressed by more than
``--tolerance`` (default 30%).  Throughput *improvements* never fail the
check; refresh the baseline (``--output BENCH_perf.json``) when they are
real so the gate tightens over time.

See docs/performance.md for how these numbers relate to the kernel and
scheduler fast paths.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.net import Network, Topology  # noqa: E402
from repro.prediction import PerformancePredictor, register_tasks  # noqa: E402
from repro.repository import ResourcePerformanceDB, TaskPerformanceDB  # noqa: E402
from repro.resources import HostSpec  # noqa: E402
from repro.scheduling import HostSelector, SiteScheduler  # noqa: E402
from repro.scheduling.levels import compute_levels  # noqa: E402
from repro.simcore import Environment, Store  # noqa: E402
from repro.tasklib import standard_registry  # noqa: E402
from repro.workloads import (  # noqa: E402
    linear_solver_graph,
    nynet_testbed,
    random_layered_graph,
)

#: Default regression tolerance: fail when throughput drops below
#: ``baseline * (1 - TOLERANCE)``.  Generous because CI hardware is
#: noisy; real regressions from the hot paths are far larger.
TOLERANCE = 0.30


# ---------------------------------------------------------------------------
# benchmark bodies: each returns the number of "operations" performed
# ---------------------------------------------------------------------------

def bench_engine_ping_pong(scale: int) -> int:
    """The DES kernel inner loop: timeout-yielding processes."""
    env = Environment()
    n = 200 * scale

    def ponger(env, n):
        for _ in range(n):
            yield env.timeout(1.0)

    for _ in range(10):
        env.process(ponger(env, n))
    env.run()
    assert env.now == float(n)
    return 10 * n  # timeouts processed


def bench_engine_store_handoff(scale: int) -> int:
    """Producer/consumer mailbox traffic (daemon message pattern)."""
    env = Environment()
    store = Store(env)
    n = 500 * scale
    received = []

    def producer(env):
        for i in range(n):
            store.put(i)
            yield env.timeout(0.001)

    def consumer(env):
        for _ in range(n):
            item = yield store.get()
            received.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert len(received) == n
    return n


def _prediction_fixture():
    registry = standard_registry()
    tp = TaskPerformanceDB()
    register_tasks(tp, registry.all_tasks())
    rp = ResourcePerformanceDB()
    for i in range(16):
        rp.register_host("s1", HostSpec(name=f"h{i}"))
        rp.update_dynamic(f"s1/h{i}", cpu_load=0.3 * i,
                          available_memory_mb=64, time=1.0)
    return tp, rp.all_records(), registry.resolve("lu-decomposition")


def bench_predict_sweep(scale: int) -> int:
    """Predict(task, R) sweeps: ``best_host`` over 16 hosts, a fresh
    predictor per round — measures the evaluation itself."""
    tp, records, definition = _prediction_fixture()
    rounds = 50 * scale
    for _ in range(rounds):
        predictor = PerformancePredictor(tp)
        best = predictor.best_host(definition, 200, records)
    assert best.host == "s1/h0"
    return rounds * len(records)


def bench_scheduler_walk(scale: int) -> int:
    """Figure 4 + Figure 5: host selection at every site plus the site
    scheduler's ready-set walk, repeated with one predictor (warm)."""
    vdce = nynet_testbed(seed=1, hosts_per_site=4, with_loads=True)
    vdce.start()
    vdce.warm_up(40.0)
    graph = linear_solver_graph(vdce.registry, n=200)
    selectors = {site: HostSelector(repo)
                 for site, repo in vdce.repositories.items()}
    rounds = 10 * scale
    for _ in range(rounds):
        scheduler = SiteScheduler("syracuse", vdce.topology, k_remote_sites=1)
        table, _report = scheduler.schedule_with_selectors(graph, selectors)
    assert len(table) == len(graph)
    return rounds * len(graph)  # tasks placed


#: per-benchmark memoized rescheduling fixtures: the testbed build and
#: warm-up cost ~10x the measured rounds, so it is hoisted out of the
#: timed body — best-of-N then measures the steady rescheduling state
#: (the trace-scale regime the incremental layer exists for).
_RESCHED_CACHE: dict[str, tuple] = {}


def _resched_fixture(key: str = ""):
    """Shared fixture for the full-vs-incremental rescheduling pair."""
    fixture = _RESCHED_CACHE.get(key)
    if fixture is None:
        vdce = nynet_testbed(seed=1, hosts_per_site=16, with_loads=True)
        vdce.start()
        vdce.warm_up(40.0)
        # trace-scale: a 200-task DAG, the regime the incremental layer
        # exists for (the 8-task solver would measure walk overhead)
        graph = random_layered_graph(vdce.registry, layers=10, width=20,
                                     seed=3)
        fixture = _RESCHED_CACHE[key] = (vdce, graph, {"round": 0})
    return fixture


def _perturb_one_host(vdce, r: int) -> None:
    """One monitoring update between rounds: the realistic delta size."""
    rp = vdce.repositories["syracuse"].resource_performance
    recs = rp.hosts_at("syracuse")
    rec = recs[r % len(recs)]
    rp.update_dynamic(rec.address, cpu_load=0.1 + 0.01 * (r % 7),
                      available_memory_mb=rec.available_memory_mb,
                      time=50.0 + r)


def bench_scheduler_full_resched(scale: int) -> int:
    """Rescheduling rounds that re-score every (task, host) pair: fresh
    ``HostSelector`` objects each round, so every score view is rebuilt
    from the repository (the path a view takes after journal
    compaction), plus the walk's per-round validation/levels/report
    bookkeeping.  One predictor per site is kept across rounds, as a
    long-lived selector would keep it; one monitoring update lands
    between rounds."""
    vdce, graph, state = _resched_fixture("full")
    predictors = {site: PerformancePredictor(repo.task_performance)
                  for site, repo in vdce.repositories.items()}
    rounds = 25 * scale
    for _ in range(rounds):
        state["round"] += 1
        _perturb_one_host(vdce, state["round"])
        selectors = {site: HostSelector(repo, predictor=predictors[site])
                     for site, repo in vdce.repositories.items()}
        scheduler = SiteScheduler("syracuse", vdce.topology,
                                  k_remote_sites=1)
        table, _report = scheduler.schedule_with_selectors(graph, selectors)
    assert len(table) == len(graph)
    return rounds * len(graph)


def bench_scheduler_incremental(scale: int) -> int:
    """The same rescheduling rounds with delta-aware selection: only the
    one dirtied host is re-scored per round (journal consumption), and
    the walk reuses the graph's derived structure."""
    vdce, graph, state = _resched_fixture("incremental")
    selectors = state.setdefault("selectors", {
        site: HostSelector(repo)
        for site, repo in vdce.repositories.items()})
    scheduler = SiteScheduler("syracuse", vdce.topology, k_remote_sites=1,
                              diagnostics=False)
    graph.validate()
    levels = compute_levels(graph)
    order = graph.topological_order()
    rounds = 25 * scale
    for _ in range(rounds):
        state["round"] += 1
        _perturb_one_host(vdce, state["round"])
        table, _report = scheduler.schedule_with_selectors(
            graph, selectors, levels=levels, order=order, revalidate=False)
    assert len(table) == len(graph)
    return rounds * len(graph)


def _bench_fanout(scale: int, as_batch: bool) -> int:
    """1000-way same-tick fan-outs: one ``send_batch`` per round, or a
    loop of ``send`` calls."""
    n_dsts = 1000
    env = Environment()
    topo = Topology()
    topo.add_site("s1")
    net = Network(env, topo)
    src = "s1/h0"
    net.register(src)
    dsts = [f"s1/h{i + 1}/svc" for i in range(n_dsts)]
    for dst in dsts:
        net.register(dst)
    rounds = 2 * scale
    for r in range(rounds):
        if as_batch:
            net.send_batch(src, dsts, "fanout", payload=r, size_bytes=64.0)
        else:
            for dst in dsts:
                net.send(src, dst, "fanout", payload=r, size_bytes=64.0)
        env.run()
    assert net.stats.messages == rounds * n_dsts
    assert net.stats.dropped == 0
    return rounds * n_dsts


def bench_event_fanout_unbatched(scale: int) -> int:
    """The per-message path: one ``send`` (one heap entry) per message."""
    return _bench_fanout(scale, as_batch=False)


def bench_event_batch_fanout(scale: int) -> int:
    """The coalesced path: one heap entry per same-delay run."""
    return _bench_fanout(scale, as_batch=True)


def bench_engine_ping_pong_hb_off(scale: int) -> int:
    """The kernel loop after a sanitizer attach/detach cycle.

    Attaches a real :class:`repro.analysis.AnalysisSession` and detaches
    it again before the timed loop, then asserts the environment is back
    on the plain dispatch path.  Both this and ``engine_ping_pong`` run
    the identical guarded loop, so the same-run ratio reports the
    off-mode cost of the happens-before hooks.  The exact check is in
    tier-1: after detach, a ping-pong run makes no recorder call
    (``tests/test_analysis.py``).
    """
    from repro.analysis import AnalysisSession
    from repro.analysis import hooks as hb_hooks
    env = Environment()
    with AnalysisSession(env):
        pass  # attach/detach round trip — must leave no residue
    assert env._hb is None and hb_hooks.HB is None
    n = 200 * scale

    def ponger(env, n):
        for _ in range(n):
            yield env.timeout(1.0)

    for _ in range(10):
        env.process(ponger(env, n))
    env.run()
    assert env.now == float(n)
    return 10 * n


def bench_trace_replay_arrivals(scale: int) -> int:
    """The traffic front door end-to-end: open-loop arrivals streamed
    lazily through admission, DRF dispatch, and the capacity backend.
    Ops are arrivals fully accounted (admitted or rejected, dispatched
    and drained), so the number is the sustainable replay rate."""
    from repro.traffic import ReplayConfig, run_replay
    n = 1000 * scale
    config = ReplayConfig(seed=5, arrivals=n, users=500, tenants=10,
                          rate_per_s=80.0)
    report = run_replay(config)
    totals = report.totals()
    assert totals["arrivals"] == n
    assert totals["dispatched"] == totals["completed"]
    return n


def bench_admission_throughput(scale: int) -> int:
    """The admission gate alone: quota + feasibility + token-bucket
    decisions per second, no dispatch behind it."""
    from repro.simcore import Environment as _Env
    from repro.traffic import (
        AdmissionController,
        DRFAllocator,
        JobRequest,
        make_tenants,
        tenant_name,
    )
    tenants = make_tenants(8, rate_per_s=0.0)
    allocator = DRFAllocator(capacity_procs=1e9, capacity_memory_mb=1e12,
                             tenants=tenants)
    env = _Env()
    controller = AdmissionController(
        env, tenants, allocator,
        demand_fn=lambda req: (float(req.nproc), 256.0 * req.nproc),
        on_admit=lambda tenant: None)
    n = 2000 * scale
    for i in range(n):
        req = JobRequest(job=f"j{i}", nproc=1 + i % 4,
                         submit_time_s=float(i), duration_s=1.0,
                         user=f"u{i % 100}", tenant=tenant_name(i % 8))
        controller.submit(req)
    assert sum(s.admitted for s in controller.stats.values()) == n
    return n


#: name -> (callable, scale, repeats).  Wall time is the best (minimum)
#: of the repeats, so scheduler warm-up and allocator noise do not count.
BENCHMARKS = {
    "engine_ping_pong": (bench_engine_ping_pong, 100, 5),
    "engine_store_handoff": (bench_engine_store_handoff, 100, 5),
    "predict_sweep": (bench_predict_sweep, 30, 5),
    "scheduler_walk": (bench_scheduler_walk, 3, 3),
    "scheduler_full_resched": (bench_scheduler_full_resched, 2, 3),
    "scheduler_incremental": (bench_scheduler_incremental, 2, 3),
    "event_fanout_unbatched": (bench_event_fanout_unbatched, 5, 3),
    "event_batch_fanout": (bench_event_batch_fanout, 5, 3),
    "engine_ping_pong_hb_off": (bench_engine_ping_pong_hb_off, 100, 5),
    "trace_replay_arrivals": (bench_trace_replay_arrivals, 20, 3),
    "admission_throughput": (bench_admission_throughput, 10, 3),
}

#: The committed pre-incremental ``scheduler_walk`` throughput
#: (BENCH_perf.json as of the scheduler-registry PR).  The incremental
#: successor must beat it by ``INCREMENTAL_SPEEDUP_MIN`` — the
#: tentpole's headline claim, enforced on every ``--check``.
SCHEDULER_WALK_BASELINE_OPS_S = 11_061.09
INCREMENTAL_SPEEDUP_MIN = 5.0

#: The committed ``event_fanout_unbatched`` throughput from when every
#: ``send`` spawned its own delivery process (BENCH_perf.json before
#: single sends moved onto ``call_later``).  The coalesced fan-out must
#: beat it by ``BATCH_SPEEDUP_MIN`` and the per-message ``send`` loop by
#: ``SEND_LOOP_SPEEDUP_MIN`` on the shared 1000-way fixture.
FANOUT_PROCESS_BASELINE_OPS_S = 73_078.92
BATCH_SPEEDUP_MIN = 3.0
SEND_LOOP_SPEEDUP_MIN = 2.0

#: Hard floors for the traffic subsystem (ops/s), enforced on every
#: ``--check`` independent of the committed baseline: the replay loop
#: must sustain trace-scale arrival rates (100k arrivals in seconds,
#: not minutes) and the admission gate must never be the bottleneck in
#: front of it.  Both sit ~4x under the measured rates so CI noise
#: cannot trip them while an accidental O(n^2) in the pump or the
#: token-bucket path will.
TRACE_REPLAY_FLOOR_OPS_S = 8_000.0
ADMISSION_FLOOR_OPS_S = 50_000.0


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def env_fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_rev": _git_rev(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_benchmarks(quick: bool = False) -> dict:
    results = {}
    for name, (fn, scale, repeats) in BENCHMARKS.items():
        if quick:
            scale = max(1, scale // 2)
            repeats = min(repeats, 2)
        best = float("inf")
        ops = 0
        for _ in range(repeats):
            t0 = time.perf_counter()
            ops = fn(scale)
            best = min(best, time.perf_counter() - t0)
        results[name] = {
            "ops": ops,
            "wall_s": round(best, 6),
            "ops_per_s": round(ops / best, 2),
            "repeats": repeats,
        }
        print(f"  {name:24s} {results[name]['ops_per_s']:>12,.0f} ops/s  "
              f"({ops} ops in {best:.3f}s best-of-{repeats})")
    return results


def check_regressions(fresh: dict, baseline_path: Path,
                      tolerance: float) -> list[str]:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, base in baseline.get("benchmarks", {}).items():
        cur = fresh.get(name)
        if cur is None:
            failures.append(f"{name}: present in baseline but not run")
            continue
        floor = base["ops_per_s"] * (1.0 - tolerance)
        if cur["ops_per_s"] < floor:
            failures.append(
                f"{name}: {cur['ops_per_s']:,.0f} ops/s < floor "
                f"{floor:,.0f} (baseline {base['ops_per_s']:,.0f}, "
                f"tolerance {tolerance:.0%})")
    return failures


def check_fast_path_speedups(fresh: dict) -> list[str]:
    """The tentpole gates for the incremental/batched hot paths."""
    failures = []
    inc = fresh.get("scheduler_incremental")
    if inc is not None:
        floor = INCREMENTAL_SPEEDUP_MIN * SCHEDULER_WALK_BASELINE_OPS_S
        if inc["ops_per_s"] < floor:
            failures.append(
                f"scheduler_incremental: {inc['ops_per_s']:,.0f} ops/s < "
                f"{floor:,.0f} ({INCREMENTAL_SPEEDUP_MIN:.0f}x the "
                f"committed pre-incremental scheduler_walk baseline "
                f"{SCHEDULER_WALK_BASELINE_OPS_S:,.0f})")
    for name, factor in (("event_batch_fanout", BATCH_SPEEDUP_MIN),
                         ("event_fanout_unbatched", SEND_LOOP_SPEEDUP_MIN)):
        cur = fresh.get(name)
        floor = factor * FANOUT_PROCESS_BASELINE_OPS_S
        if cur is not None and cur["ops_per_s"] < floor:
            failures.append(
                f"{name}: {cur['ops_per_s']:,.0f} ops/s < {floor:,.0f} "
                f"({factor:.0f}x the committed process-per-message "
                f"fan-out baseline {FANOUT_PROCESS_BASELINE_OPS_S:,.0f})")
    return failures


def check_traffic_floors(fresh: dict) -> list[str]:
    """Hard ops/s floors for the traffic replay and admission paths."""
    failures = []
    for name, floor in (("trace_replay_arrivals", TRACE_REPLAY_FLOOR_OPS_S),
                        ("admission_throughput", ADMISSION_FLOOR_OPS_S)):
        cur = fresh.get(name)
        if cur is not None and cur["ops_per_s"] < floor:
            failures.append(
                f"{name}: {cur['ops_per_s']:,.0f} ops/s < committed floor "
                f"{floor:,.0f}; the traffic subsystem must sustain "
                "trace-scale load")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", "-o", type=Path,
                        default=REPO_ROOT / "BENCH_perf.json",
                        help="where to write the report JSON")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare against a baseline report; exit 1 on "
                             ">tolerance throughput regression")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="allowed fractional throughput drop (default "
                             f"{TOLERANCE})")
    parser.add_argument("--quick", action="store_true",
                        help="smaller scales / fewer repeats (smoke mode)")
    args = parser.parse_args(argv)

    print(f"perf_report: {len(BENCHMARKS)} benchmarks "
          f"({'quick' if args.quick else 'full'} mode)")
    benchmarks = run_benchmarks(quick=args.quick)
    report = {"schema": 1, "env": env_fingerprint(), "benchmarks": benchmarks}
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    inc = benchmarks.get("scheduler_incremental")
    full = benchmarks.get("scheduler_full_resched")
    if inc and full:
        print(f"incremental scheduling: "
              f"{inc['ops_per_s'] / full['ops_per_s']:.1f}x same-run full "
              f"re-walk, {inc['ops_per_s'] / SCHEDULER_WALK_BASELINE_OPS_S:.1f}x "
              "the committed scheduler_walk baseline")
    bat = benchmarks.get("event_batch_fanout")
    unb = benchmarks.get("event_fanout_unbatched")
    if bat and unb:
        print(f"event fan-out: batch "
              f"{bat['ops_per_s'] / FANOUT_PROCESS_BASELINE_OPS_S:.1f}x, "
              f"send loop "
              f"{unb['ops_per_s'] / FANOUT_PROCESS_BASELINE_OPS_S:.1f}x "
              "the committed process-per-message baseline")

    ping = benchmarks.get("engine_ping_pong")
    hb_off = benchmarks.get("engine_ping_pong_hb_off")
    if ping and hb_off:
        print(f"hb sanitizer: off "
              f"{1.0 - hb_off['ops_per_s'] / ping['ops_per_s']:+.1%} "
              "vs same-run plain kernel")

    rep = benchmarks.get("trace_replay_arrivals")
    adm = benchmarks.get("admission_throughput")
    if rep and adm:
        print(f"traffic: replay sustains {rep['ops_per_s']:,.0f} arrivals/s "
              f"(floor {TRACE_REPLAY_FLOOR_OPS_S:,.0f}), admission "
              f"{adm['ops_per_s']:,.0f} decisions/s "
              f"(floor {ADMISSION_FLOOR_OPS_S:,.0f})")

    if args.check is not None:
        if not args.check.exists():
            print(f"no baseline at {args.check}; nothing to compare")
            return 0
        failures = check_regressions(benchmarks, args.check, args.tolerance)
        failures += check_fast_path_speedups(benchmarks)
        failures += check_traffic_floors(benchmarks)
        if failures:
            print("PERF REGRESSION:")
            for f in failures:
                print(f"  {f}")
            return 1
        print(f"no regression vs {args.check} "
              f"(tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
