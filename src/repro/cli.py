"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the paper's workflow without writing code:

* ``info``      — installed task libraries and message-passing dialects;
* ``solve``     — run the Figure 3 Linear Equation Solver on the simulated
                  NYNET testbed and verify the residual;
* ``schedule``  — schedule a workload family and print the resource
                  allocation table (without executing);
* ``local``     — execute an application for real over loopback TCP;
* ``monitor``   — run the monitoring pipeline and print the workload view;
* ``obs``       — run a workload with observability on and print the
                  utilization / queue-depth / latency report (optionally
                  exporting Chrome-trace, Prometheus, or JSONL dumps);
* ``bakeoff``   — score every registered scheduler over the default
                  workloads against the branch-and-bound optimal
                  reference, emitting a table + deterministic JSON
                  (``--replay`` scores them under sustained
                  multi-tenant traffic instead);
* ``replay``    — stream a job trace or synthetic arrival process
                  through multi-tenant admission + DRF dispatch and
                  print the per-tenant report (or, given a positional
                  path, render a saved post-mortem archive).
"""

from __future__ import annotations

import argparse
import math
import sys

from repro import __version__
from repro.runtime.data.messaging import DIALECTS
from repro.tasklib import standard_registry
from repro.util.errors import ConfigurationError
from repro.viz import ApplicationPerformanceView, WorkloadView
from repro.workloads import (
    APPLICATION_FAMILIES,
    c3i_scenario_graph,
    fourier_pipeline_graph,
    linear_solver_graph,
    nynet_testbed,
)


def _build_app(name: str, registry, size: int | None):
    if name == "linear-solver":
        return linear_solver_graph(
            registry, n=size if size is not None else 120)
    if name == "fourier-pipeline":
        return fourier_pipeline_graph(
            registry, n=size if size is not None else 4096)
    if name == "c3i-scenario":
        return c3i_scenario_graph(
            registry, targets=size if size is not None else 40)
    raise SystemExit(
        f"unknown application {name!r}; choose from "
        f"linear-solver, fourier-pipeline, c3i-scenario")


def cmd_info(args) -> int:
    registry = standard_registry()
    print(f"repro (VDCE reproduction) version {__version__}")
    print("\nTask libraries:")
    for library, tasks in registry.menu().items():
        print(f"  {library} ({len(tasks)} tasks)")
        for t in tasks:
            d = registry.resolve(t)
            marker = " [parallel]" if d.parallel_capable else ""
            print(f"    - {t}{marker}: {d.description}")
    print(f"\nMessage-passing dialects: {', '.join(sorted(DIALECTS))}")
    print(f"Workload families: {', '.join(sorted(APPLICATION_FAMILIES))}")
    return 0


def cmd_solve(args) -> int:
    from repro.obs import Observability
    # the post-mortem archive keeps the trace log, which only an
    # observed run records
    vdce = nynet_testbed(seed=args.seed, hosts_per_site=args.hosts,
                         with_loads=not args.idle,
                         obs=Observability() if args.archive else None)
    vdce.start()
    if not args.idle:
        vdce.warm_up(30.0)
    graph = linear_solver_graph(vdce.registry, n=args.n,
                                parallel_lu=args.parallel)
    run = vdce.run_application(graph, "syracuse", k_remote_sites=args.k,
                               max_sim_time_s=args.max_time)
    print(f"status    : {run.status}")
    if run.status != "completed":
        return 1
    print(f"makespan  : {run.makespan:.3f} simulated seconds")
    print(f"residual  : {run.results()['verify']['norm']:.3e}")
    print()
    print(ApplicationPerformanceView(run).render())
    if args.archive:
        from repro.viz import archive_run
        archive_run(run, args.archive, tracer=vdce.tracer)
        print(f"\npost-mortem archive written to {args.archive}")
    return 0


def cmd_schedule(args) -> int:
    vdce = nynet_testbed(seed=args.seed, hosts_per_site=args.hosts,
                         with_loads=not args.idle)
    graph = _build_app(args.app, vdce.registry, args.size)
    vdce.start()
    if not args.idle:
        vdce.warm_up(30.0)
    from repro.scheduling import SiteScheduler, predicted_schedule_length
    sched = SiteScheduler("syracuse", vdce.topology, k_remote_sites=args.k,
                          queue_aware=args.queue_aware)
    table, report = sched.schedule_with_selectors(graph, vdce.selectors)
    print(f"application     : {graph.name} ({len(graph)} tasks)")
    print(f"consulted sites : {', '.join(report.consulted_sites)}")
    print(f"predicted length: "
          f"{predicted_schedule_length(graph, table, vdce.topology):.3f} s")
    print("\nresource allocation table:")
    width = max(len(n) for n in table.entries)
    for nid in report.scheduling_order:
        e = table.get(nid)
        print(f"  {nid:<{width}} -> {','.join(e.hosts):<22} "
              f"predict {e.predicted_time_s:8.3f}s  "
              f"transfer {e.predicted_transfer_s:7.3f}s")
    return 0


def cmd_local(args) -> int:
    from repro.runtime.local import run_local
    registry = standard_registry()
    graph = _build_app(args.app, registry, args.size)
    result = run_local(graph, dialect=args.dialect,
                       timeout_s=args.max_time)
    if not result.ok:
        print(f"FAILED: {result.errors}", file=sys.stderr)
        return 1
    print(f"completed {len(result.task_order)} tasks over real TCP "
          f"({args.dialect} dialect)")
    print(f"order: {' -> '.join(result.task_order)}")
    for nid, outputs in result.outputs.items():
        for port, value in outputs.items():
            desc = getattr(value, "shape", value)
            print(f"  output {nid}.{port}: {desc}")
    return 0


def cmd_replay(args) -> int:
    if args.archive:
        from repro.viz import RunArchive
        print(RunArchive.load(args.archive).render())
        return 0
    from repro.traffic import ReplayConfig, check_report, run_replay
    generator = "trace" if args.trace else args.generator
    config = ReplayConfig(
        generator=generator, trace_path=args.trace or "",
        seed=args.seed, arrivals=args.arrivals, users=args.users,
        tenants=args.tenants, rate_per_s=args.rate,
        think_time_s=args.think_time,
        procs_per_site=args.procs_per_site,
        weight_skew=args.weight_skew, quota_procs=args.quota_procs,
        quota_memory_mb=args.quota_memory,
        rate_limit_per_s=args.rate_limit, burst=args.burst,
        max_pending=args.max_pending)
    obs = None
    if args.obs or args.prom:
        from repro.obs import Observability
        obs = Observability()
    from repro.obs import OBS_OFF
    report = run_replay(config, obs=obs if obs is not None else OBS_OFF)
    print(report.render())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
        print(f"\nreplay JSON written to {args.json}")
    if obs is not None and args.prom:
        from repro.obs.export import to_prometheus_text
        with open(args.prom, "w") as fh:
            fh.write(to_prometheus_text(obs.metrics))
        print(f"per-tenant Prometheus text written to {args.prom}")
    if obs is not None and args.obs:
        admitted = obs.metrics.counter("traffic_admitted_total").total()
        dispatched = obs.metrics.counter("traffic_dispatched_total").total()
        print(f"\nobs: {admitted:.0f} admissions, {dispatched:.0f} "
              "dispatches recorded in the metrics registry")
    if args.check:
        problems = check_report(report)
        if problems:
            print(f"\nFAIL: {len(problems)} replay invariant "
                  "violation(s):", file=sys.stderr)
            for p in problems:
                print(f"  {p}", file=sys.stderr)
            return 1
        print("\nOK: accounting and DRF invariants hold")
    return 0


def cmd_experiment(args) -> int:
    from repro import experiments
    drivers = {
        "schedulers": lambda: experiments.scheduler_comparison(
            seeds=tuple(range(1, args.seeds + 1))),
        "ablation": lambda: experiments.prediction_ablation(
            seeds=tuple(range(1, args.seeds + 1))),
        "monitoring": lambda: experiments.monitoring_comparison(),
        "failure-detection": lambda: experiments.failure_detection_sweep(),
    }
    try:
        driver = drivers[args.name]
    except KeyError:
        raise SystemExit(f"unknown experiment {args.name!r}; choose from "
                         f"{', '.join(sorted(drivers))}")
    result = driver()
    print(result.render())
    if args.json:
        import json as _json
        print(_json.dumps({"name": result.name, "rows": result.rows,
                           "metadata": result.metadata}, indent=2))
    return 0


def cmd_plan(args) -> int:
    from repro.experiments import capacity_plan
    registry = standard_registry()
    graph = _build_app(args.app, registry, args.size)
    plan = capacity_plan(graph, deadline_s=args.deadline,
                         max_hosts=args.max_hosts)
    print(f"application : {graph.name} ({len(graph)} tasks)")
    print(f"deadline    : {args.deadline:.3f} s")
    for hosts, predicted in plan.sweep:
        marker = " <= deadline" if predicted <= args.deadline else ""
        print(f"  {hosts:3d} hosts -> predicted {predicted:8.3f} s{marker}")
    if plan.feasible:
        print(f"answer      : {plan.hosts_needed} host(s) suffice "
              f"(predicted {plan.predicted_s:.3f} s)")
        return 0
    print(f"answer      : infeasible within {args.max_hosts} hosts")
    return 1


def cmd_show(args) -> int:
    from repro.afg import render_graph, render_summary
    registry = standard_registry()
    graph = _build_app(args.app, registry, args.size)
    print(render_summary(graph))
    print()
    print(render_graph(graph, show_ports=not args.no_ports))
    return 0


def cmd_bakeoff(args) -> int:
    if args.replay:
        return _bakeoff_replay(args)
    from repro.bakeoff import (
        BakeoffConfig,
        check_json_against_baseline,
        resolve_schedulers,
        resolve_workloads,
        run_bakeoff,
    )
    config = BakeoffConfig(
        schedulers=resolve_schedulers(args.schedulers),
        workloads=resolve_workloads(args.workloads),
        seed=args.seed, hosts_per_site=args.hosts,
        optimal_task_limit=args.optimal_limit)
    obs = None
    if args.obs:
        from repro.obs import Observability
        obs = Observability()
    result = run_bakeoff(config, obs=obs)
    print(result.render())
    payload = result.to_json()
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(payload)
        print(f"\nbake-off JSON written to {args.json}")
    if args.obs and obs is not None:
        rounds = obs.metrics.counter("bakeoff_rounds_total").total()
        spans = len(obs.spans.finished("schedule-round"))
        print(f"\nschedule rounds observed: {rounds:.0f} "
              f"({spans} schedule-round spans)")
    if args.check:
        failures = check_json_against_baseline(
            payload, args.check, tolerance=args.tolerance)
        if failures:
            print(f"\nFAIL: {len(failures)} optimality-gap regression(s) "
                  f"vs {args.check}:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print(f"\nOK: no optimality-gap regressions vs {args.check} "
              f"(tolerance +{args.tolerance:.2f})")
    return 0


def _bakeoff_replay(args) -> int:
    from repro.bakeoff import (
        DEFAULT_REPLAY_SCHEDULERS,
        ReplayBakeoffConfig,
        run_replay_bakeoff,
    )
    from repro.obs import OBS_OFF, Observability
    names = (DEFAULT_REPLAY_SCHEDULERS
             if args.schedulers in ("all", "default")
             else tuple(s.strip() for s in args.schedulers.split(",")))
    config = ReplayBakeoffConfig(
        schedulers=names, seed=args.seed,
        arrivals=args.replay_arrivals, tenants=args.replay_tenants,
        hosts_per_site=args.hosts)
    obs = Observability() if args.obs else OBS_OFF
    result = run_replay_bakeoff(config, obs=obs)
    print(result.render())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(result.to_json())
        print(f"\nreplay bake-off JSON written to {args.json}")
    if args.obs:
        dispatched = obs.metrics.counter("traffic_dispatched_total").total()
        print(f"\ndispatches observed across contestants: {dispatched:.0f}")
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis import AnalyzeConfig, render_report, run_analysis
    from repro.analysis.runner import SCENARIOS, report_json
    scenarios = SCENARIOS if args.scenario == "all" else (args.scenario,)
    try:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    except ValueError:
        raise ConfigurationError(
            f"--seeds must be a comma list of integers, got "
            f"{args.seeds!r}") from None
    config = AnalyzeConfig(
        seeds=seeds,
        scenarios=scenarios, chaos_tasks=args.tasks,
        max_sim_time_s=args.max_time)
    report = run_analysis(config)
    print(render_report(report), end="")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report_json(report))
        print(f"\nanalysis JSON written to {args.json}")
    if report["unsuppressed_races"] or not report["certificate"]["shardable"]:
        print(f"\nFAIL: {report['unsuppressed_races']} unsuppressed "
              "race(s); certificate withheld", file=sys.stderr)
        return 1
    return 0


def cmd_monitor(args) -> int:
    from repro.obs import Observability
    vdce = nynet_testbed(seed=args.seed, hosts_per_site=args.hosts,
                         with_loads=True, filter_policy=args.policy,
                         obs=Observability())
    vdce.start()
    vdce.run(until=args.duration)
    print(WorkloadView(vdce.tracer).render())
    reports = sum(gm.stats.reports_received
                  for gm in vdce.group_managers.values())
    forwarded = sum(gm.stats.updates_forwarded
                    for gm in vdce.group_managers.values())
    print(f"\nmonitor reports: {reports}; forwarded to repositories: "
          f"{forwarded} (policy: {args.policy}, "
          f"{reports / max(forwarded, 1):.1f}x reduction)")
    return 0


def cmd_obs(args) -> int:
    from repro.obs import Observability
    from repro.obs.export import (
        chrome_trace_json,
        spans_to_jsonl,
        to_prometheus_text,
    )
    from repro.obs.report import render_report, sample_queue_depths

    obs = Observability()
    vdce = nynet_testbed(seed=args.seed, hosts_per_site=args.hosts,
                         with_loads=not args.idle, obs=obs)
    graph = _build_app(args.app, vdce.registry, args.size)
    vdce.start()
    if not args.idle:
        vdce.warm_up(30.0)
    processes = [vdce.submit(graph, "syracuse", queue_aware=args.queue_aware)
                 for _ in range(args.apps)]
    deadline = vdce.now + args.max_time
    while (any(not p.triggered for p, _ in processes)
           and vdce.now < deadline):
        vdce.run(until=min(vdce.now + args.sample_every, deadline))
        sample_queue_depths(obs, vdce)
    for process, run in processes:
        if not process.triggered:
            run.status = "timeout"
        elif not process.ok:
            run.status = "rejected"
            raise process.exception
    statuses = [run.status for _, run in processes]
    print(f"application : {graph.name} ({len(graph)} tasks) x {args.apps}")
    print(f"statuses    : {', '.join(statuses)}")
    print()
    print(render_report(obs, clock_end=vdce.now), end="")
    if args.chrome:
        with open(args.chrome, "w") as fh:
            fh.write(chrome_trace_json(obs.spans.spans, clock_end=vdce.now))
        print(f"\nChrome trace written to {args.chrome} "
              "(load in Perfetto / chrome://tracing)")
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(to_prometheus_text(obs.metrics))
        print(f"Prometheus text written to {args.prom}")
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            fh.write(spans_to_jsonl(obs.spans.spans))
        print(f"Span JSONL written to {args.jsonl}")
    return 0 if all(s == "completed" for s in statuses) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VDCE — Virtual Distributed Computing Environment "
                    "(Topcuoglu et al., 1997) reproduction")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list task libraries and dialects")

    solve = sub.add_parser("solve", help="run the Figure 3 solver")
    solve.add_argument("--n", type=int, default=120,
                       help="matrix dimension")
    solve.add_argument("--parallel", action="store_true",
                       help="parallel LU on two nodes (the figure's panel)")
    solve.add_argument("--k", type=int, default=1,
                       help="remote sites to consult")
    solve.add_argument("--archive", default=None,
                       help="write a post-mortem JSON archive here")

    replay = sub.add_parser(
        "replay",
        help="replay a job trace or synthetic arrival process through "
             "multi-tenant admission + DRF dispatch (or render a saved "
             "post-mortem archive)")
    replay.add_argument("archive", nargs="?", default=None,
                        help="path to a saved run archive "
                             "(archive-render mode)")
    replay.add_argument("--generator", default="open-loop",
                        choices=("open-loop", "closed-loop",
                                 "synthetic-alibaba"),
                        help="arrival process when no --trace is given")
    replay.add_argument("--trace", default=None,
                        help="replay this trace file "
                             "(job nproc submit duration user [tenant])")
    replay.add_argument("--arrivals", type=int, default=100_000,
                        help="arrivals to stream (lazily, never "
                             "materialized)")
    replay.add_argument("--users", type=int, default=1000)
    replay.add_argument("--tenants", type=int, default=10)
    replay.add_argument("--rate", type=float, default=40.0,
                        help="open-loop arrivals per simulated second")
    replay.add_argument("--think-time", type=float, default=20.0,
                        help="closed-loop user think time (simulated s)")
    replay.add_argument("--seed", type=int, default=11)
    replay.add_argument("--procs-per-site", type=int, default=64)
    replay.add_argument("--weight-skew", type=float, default=0.0,
                        help="spread tenant DRF weights over [1, 1+skew]")
    replay.add_argument("--quota-procs", type=int, default=0,
                        help="per-tenant processor quota (0 = uncapped)")
    replay.add_argument("--quota-memory", type=float, default=0.0,
                        help="per-tenant memory quota in MB (0 = uncapped)")
    replay.add_argument("--rate-limit", type=float, default=0.0,
                        help="per-tenant admission tokens per second "
                             "(0 = unthrottled)")
    replay.add_argument("--burst", type=int, default=8,
                        help="token-bucket burst size")
    replay.add_argument("--max-pending", type=int, default=0,
                        help="per-tenant pending-queue bound (0 = none)")
    replay.add_argument("--json", default=None,
                        help="write the deterministic replay JSON here")
    replay.add_argument("--check", action="store_true",
                        help="fail unless accounting and DRF invariants "
                             "hold")
    replay.add_argument("--obs", action="store_true",
                        help="record per-tenant metrics in the obs "
                             "registry")
    replay.add_argument("--prom", default=None,
                        help="write per-tenant Prometheus text here "
                             "(implies --obs)")

    sched = sub.add_parser("schedule", help="print an allocation table")
    sched.add_argument("--app", default="linear-solver")
    sched.add_argument("--size", type=int, default=None)
    sched.add_argument("--k", type=int, default=1)
    sched.add_argument("--queue-aware", action="store_true",
                       help="use the earliest-finish-time extension")

    local = sub.add_parser("local", help="execute over real TCP sockets")
    local.add_argument("--app", default="linear-solver")
    local.add_argument("--size", type=int, default=60)
    local.add_argument("--dialect", default="vdce",
                       choices=sorted(DIALECTS))

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("name",
                     choices=("schedulers", "ablation", "monitoring",
                              "failure-detection"))
    exp.add_argument("--seeds", type=int, default=2,
                     help="replications for averaged experiments")
    exp.add_argument("--json", action="store_true",
                     help="also dump machine-readable JSON")

    plan = sub.add_parser("plan",
                          help="capacity planning: hosts needed for a deadline")
    plan.add_argument("--app", default="linear-solver")
    plan.add_argument("--size", type=int, default=None)
    plan.add_argument("--deadline", type=float, required=True,
                      help="target schedule length (simulated seconds)")
    plan.add_argument("--max-hosts", type=int, default=16)

    show = sub.add_parser("show", help="render an application flow graph")
    show.add_argument("--app", default="linear-solver")
    show.add_argument("--size", type=int, default=None)
    show.add_argument("--no-ports", action="store_true")

    bakeoff = sub.add_parser(
        "bakeoff",
        help="score registered schedulers against the optimal reference")
    bakeoff.add_argument("--schedulers", default="all",
                         help="'all' or a comma list of registry names")
    bakeoff.add_argument("--workloads", default="default",
                         help="'default' or a comma list of workload names")
    bakeoff.add_argument("--seed", type=int, default=0)
    bakeoff.add_argument("--hosts", type=int, default=3,
                         help="hosts per site")
    bakeoff.add_argument("--optimal-limit", type=int, default=9,
                         help="max tasks for the branch-and-bound reference")
    bakeoff.add_argument("--json", default=None,
                         help="write the deterministic comparison JSON here")
    bakeoff.add_argument("--check", default=None, metavar="BASELINE",
                         help="fail on optimality-gap regression vs this "
                              "committed bake-off JSON")
    bakeoff.add_argument("--tolerance", type=float, default=0.10,
                         help="allowed absolute gap increase for --check")
    bakeoff.add_argument("--obs", action="store_true",
                         help="record schedule-round spans and counters")
    bakeoff.add_argument("--replay", action="store_true",
                         help="score schedulers under sustained "
                              "multi-tenant replay load instead of "
                              "per-workload scheduling")
    bakeoff.add_argument("--replay-arrivals", type=int, default=200,
                         help="arrivals per contestant in --replay mode")
    bakeoff.add_argument("--replay-tenants", type=int, default=5,
                         help="tenant count in --replay mode")

    analyze = sub.add_parser(
        "analyze",
        help="run the happens-before race sanitizer and emit the "
             "cross-site isolation certificate")
    analyze.add_argument("--seeds", default="101,202,303",
                         help="comma list of seeds")
    analyze.add_argument("--scenario", default="all",
                         choices=("chaos", "bakeoff", "all"))
    analyze.add_argument("--tasks", type=int, default=60,
                         help="chaos solver problem size")
    analyze.add_argument("--max-time", type=float, default=600.0,
                         help="simulated-time budget per run")
    analyze.add_argument("--json", default=None,
                         help="write the deterministic race report here")

    monitor = sub.add_parser("monitor", help="run the monitoring pipeline")
    monitor.add_argument("--duration", type=float, default=60.0)
    monitor.add_argument("--policy", default="ci",
                         choices=("always", "ci", "threshold"))

    obs = sub.add_parser(
        "obs", help="run with observability on and print the report")
    obs.add_argument("--app", default="linear-solver")
    obs.add_argument("--size", type=int, default=None)
    obs.add_argument("--apps", type=int, default=1,
                     help="copies of the application to submit")
    obs.add_argument("--queue-aware", action="store_true")
    obs.add_argument("--sample-every", type=float, default=5.0,
                     help="queue-depth sampling period (simulated s)")
    obs.add_argument("--max-time", type=float, default=3600.0,
                     help="simulated-time budget")
    obs.add_argument("--chrome", default=None,
                     help="write a Chrome trace_event JSON here")
    obs.add_argument("--prom", default=None,
                     help="write a Prometheus text exposition here")
    obs.add_argument("--jsonl", default=None,
                     help="write the span log as JSONL here")

    for p in (solve, sched, monitor, obs):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--hosts", type=int, default=4,
                       help="hosts per site")
        p.add_argument("--idle", action="store_true",
                       help="no background load")
    solve.add_argument("--max-time", type=float, default=3600.0,
                       help="simulated-time budget")
    local.add_argument("--max-time", type=float, default=120.0,
                       help="wall-clock budget (s)")
    return parser


COMMANDS = {
    "info": cmd_info,
    "analyze": cmd_analyze,
    "bakeoff": cmd_bakeoff,
    "solve": cmd_solve,
    "schedule": cmd_schedule,
    "local": cmd_local,
    "monitor": cmd_monitor,
    "obs": cmd_obs,
    "plan": cmd_plan,
    "show": cmd_show,
    "experiment": cmd_experiment,
    "replay": cmd_replay,
}


#: (option, test, rule) for the numbers a run is bounded or sized by;
#: a value that fails would hang the run or end it before it starts
_NUMBER_CHECKS = (
    ("max_time", lambda v: 0 < v < math.inf, "positive and finite"),
    ("sample_every", lambda v: v > 0, "positive"),
    ("duration", lambda v: v != math.inf, "finite"),
    ("hosts", lambda v: v >= 1, "at least 1"),
    ("apps", lambda v: v >= 1, "at least 1"),
)


def _check_numbers(args) -> None:
    """Raise :class:`ConfigurationError` for a bad bound or count.

    NaN and negative ``--duration`` values are left to the kernel,
    whose ``run(until=...)`` raises ``SimulationError`` for them.
    """
    for name, ok, rule in _NUMBER_CHECKS:
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise ConfigurationError(
                f"--{name.replace('_', '-')} must be {rule}, got {value}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _check_numbers(args)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
