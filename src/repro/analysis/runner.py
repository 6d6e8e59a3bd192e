"""Drive the chaos + bakeoff scenarios under the sanitizer.

``repro analyze`` (and the CI ``analyze`` job) call :func:`run_analysis`,
which executes, per seed:

* **chaos** — the chaos harness's end-to-end run (seeded random fault
  plan, linear-solver pipeline pinned across both sites) with an
  :class:`~repro.analysis.session.AnalysisSession` attached for the
  whole simulation;
* **bakeoff** — every default bake-off workload submitted through the
  full simulated pipeline on a fresh quiet testbed, plus the static
  registry sweep (:func:`repro.bakeoff.run_bakeoff`) under the layer
  hooks, which certifies the schedulers' repository access patterns.

The report is canonical JSON — sorted keys, sorted aggregates, stacks
with stable project-relative frames — and byte-identical for a fixed
seed list, which CI pins by running the command twice.

Suppressions are glob rules (``cell`` / ``context`` fnmatch patterns)
with a mandatory justification; suppressed races stay in the report,
marked, and are counted separately — the CI gate requires zero
*unsuppressed* findings, mirroring reprolint's comment policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any

from repro.analysis.hb import HBRecorder, Race
from repro.analysis.session import AnalysisSession

#: scenario names accepted by ``repro analyze --scenario``
SCENARIOS = ("chaos", "bakeoff")


@dataclass(frozen=True)
class Suppression:
    """One tolerated hazard: glob patterns + the reason it is benign."""

    cell: str                 # fnmatch pattern over "site/name"
    context: str = "*"        # fnmatch pattern over either context label
    reason: str = ""

    def matches(self, race: Race) -> bool:
        cell = f"{race.cell[0]}/{race.cell[1]}"
        if not fnmatchcase(cell, self.cell):
            return False
        return (fnmatchcase(race.first.label, self.context)
                or fnmatchcase(race.second.label, self.context))


#: hazards tolerated on the current tree (keep justifications honest:
#: every entry is an accepted risk for sharding, not a dismissed bug)
DEFAULT_SUPPRESSIONS: tuple[Suppression, ...] = ()


@dataclass
class AnalyzeConfig:
    """Everything that determines one analysis run (and its bytes)."""

    seeds: tuple[int, ...] = (101, 202, 303)
    scenarios: tuple[str, ...] = SCENARIOS
    chaos_tasks: int = 60
    chaos_horizon_s: float = 60.0
    max_sim_time_s: float = 600.0
    stack_depth: int = 6
    suppressions: tuple[Suppression, ...] = DEFAULT_SUPPRESSIONS
    bakeoff_schedulers: tuple[str, ...] = ("site", "site-queue-aware",
                                           "heft")


def _crash_candidates(vdce: Any) -> list[str]:
    """Hosts a chaos plan may crash: everything except group leaders
    (mirrors tests/chaos/harness.py, which cannot be imported from
    library code)."""
    leaders = set()
    for site in vdce.world.sites.values():
        for group in site.groups:
            leaders.add(f"{site.name}/{site.group_leader(group)}")
    return [h.address for h in vdce.world.all_hosts()
            if h.address not in leaders]


def _drive(vdce: Any, process: Any, run: Any, deadline: float) -> str:
    """Run the simulation to a terminal state (chaos-harness semantics)."""
    from repro.util.errors import VDCEError
    try:
        while not process.triggered and vdce.now < deadline:
            vdce.env.run(until=vdce.now + 5.0)
        if process.triggered:
            if not process.ok:
                run.status = "rejected"
                raise process.exception
        else:
            run.status = "timeout"
    except VDCEError:
        pass
    return run.status


def _pin_across_sites(graph: Any, sites: list[str]) -> None:
    for i, nid in enumerate(graph.nodes):
        graph.node(nid).properties.preferred_site = sites[i % len(sites)]


def _run_chaos_scenario(seed: int,
                        cfg: AnalyzeConfig) -> tuple[HBRecorder, dict]:
    from repro.faults import FaultPlan
    from repro.workloads import linear_solver_graph, quiet_testbed

    vdce = quiet_testbed(seed=seed)
    vdce.start()
    # Standbys on every site + server crashes in the plan: WAL shipping,
    # replica application and rank-staggered promotion all run under the
    # sanitizer, not just the happy path.
    for site_name in sorted(vdce.world.sites):
        vdce.enable_failover(site_name, ["h1", "h2"])
    session = AnalysisSession(vdce.env, sites=vdce.world.sites,
                              stack_depth=cfg.stack_depth)
    with session:
        session.track_vdce(vdce)
        plan = FaultPlan.random(
            vdce.world.rng.stream("chaos-plan"), _crash_candidates(vdce),
            sites=sorted(vdce.world.sites), horizon_s=cfg.chaos_horizon_s,
            n_server_crashes=1)
        vdce.apply_fault_plan(plan)
        graph = linear_solver_graph(vdce.registry, n=cfg.chaos_tasks)
        sites = sorted(vdce.world.sites)
        _pin_across_sites(graph, sites)
        process, run = vdce.submit(graph, sites[0], k_remote_sites=1)
        status = _drive(vdce, process, run, vdce.now + cfg.max_sim_time_s)
    meta = {"status": status, "events": "chaos",
            "failed_processes": len(vdce.env.failed_processes)}
    return session.recorder, meta


def _run_bakeoff_scenario(seed: int,
                          cfg: AnalyzeConfig) -> tuple[HBRecorder, dict]:
    from repro.bakeoff import BakeoffConfig, run_bakeoff
    from repro.bakeoff.runner import DEFAULT_WORKLOADS
    from repro.simcore.engine import Environment
    from repro.workloads import quiet_testbed

    statuses: dict[str, str] = {}
    recorders: list[HBRecorder] = []
    # (a) every default workload through the full simulated pipeline
    for workload in sorted(DEFAULT_WORKLOADS):
        builder = DEFAULT_WORKLOADS[workload]
        vdce = quiet_testbed(seed=seed)
        vdce.start()
        session = AnalysisSession(vdce.env, sites=vdce.world.sites,
                                  stack_depth=cfg.stack_depth)
        with session:
            session.track_vdce(vdce)
            graph = builder(vdce.registry)
            sites = sorted(vdce.world.sites)
            _pin_across_sites(graph, sites)
            process, run = vdce.submit(graph, sites[0], k_remote_sites=1)
            statuses[workload] = _drive(vdce, process, run,
                                        vdce.now + cfg.max_sim_time_s)
        recorders.append(session.recorder)
    # (b) the static registry sweep: schedulers read repositories through
    # the layer hooks (no DES run — one external context, so this feeds
    # the access matrix, not the race detector)
    scratch = Environment()
    session = AnalysisSession(scratch, sites=("syracuse", "rome"),
                              stack_depth=cfg.stack_depth)
    with session:
        run_bakeoff(BakeoffConfig(schedulers=cfg.bakeoff_schedulers,
                                  workloads=tuple(sorted(DEFAULT_WORKLOADS)),
                                  seed=seed))
    recorders.append(session.recorder)
    merged = _merge_recorders(recorders)
    return merged, {"status": statuses, "events": "bakeoff"}


def _merge_recorders(recorders: list[HBRecorder]) -> HBRecorder:
    """Fold several sub-run recorders into one (first one wins races'
    identity; matrices and stats sum)."""
    base = recorders[0]
    for other in recorders[1:]:
        base.sites.update(other.sites)
        for race in other.races:
            if race.key not in base._race_keys:
                base._race_keys.add(race.key)
                base.races.append(race)
        for key, n in other.direct_matrix.items():
            base.direct_matrix[key] = base.direct_matrix.get(key, 0) + n
        for key, n in other.network_matrix.items():
            base.network_matrix[key] = base.network_matrix.get(key, 0) + n
        for cell, stats in other.cell_stats.items():
            mine = base.cell_stats.get(cell)
            if mine is None:
                base.cell_stats[cell] = stats
            else:
                mine.reads += stats.reads
                mine.writes += stats.writes
                mine.accessors.update(stats.accessors)
    return base


def apply_suppressions(races: list[Race],
                       suppressions: tuple[Suppression, ...]) -> None:
    for race in races:
        for rule in suppressions:
            if rule.matches(race):
                race.suppressed = True
                race.suppression = rule.reason
                break


def run_analysis(cfg: AnalyzeConfig) -> dict[str, Any]:
    """Execute every (scenario, seed) combination and fold the results
    into the canonical report dict."""
    runs: list[dict[str, Any]] = []
    all_races: dict[tuple[str, ...], Race] = {}
    direct: dict[tuple[str, str], int] = {}
    network: dict[tuple[str, str], int] = {}
    cells: dict[str, dict[str, Any]] = {}
    sites: set[str] = set()
    for scenario in cfg.scenarios:
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}; "
                             f"available: {', '.join(SCENARIOS)}")
        runner = (_run_chaos_scenario if scenario == "chaos"
                  else _run_bakeoff_scenario)
        for seed in cfg.seeds:
            recorder, meta = runner(seed, cfg)
            apply_suppressions(recorder.races, cfg.suppressions)
            sites.update(recorder.sites)
            for race in recorder.races:
                all_races.setdefault(race.key, race)
            for key, n in recorder.direct_matrix.items():
                direct[key] = direct.get(key, 0) + n
            for key, n in recorder.network_matrix.items():
                network[key] = network.get(key, 0) + n
            for cell, stats in sorted(recorder.cell_stats.items()):
                name = f"{cell[0]}/{cell[1]}"
                agg = cells.setdefault(
                    name, {"reads": 0, "writes": 0, "accessors": []})
                agg["reads"] += stats.reads
                agg["writes"] += stats.writes
                agg["accessors"] = sorted(
                    set(agg["accessors"]) | stats.accessors)
            runs.append({
                "scenario": scenario, "seed": seed, "meta": meta,
                "races": len(recorder.races),
                "unsuppressed": len(recorder.unsuppressed_races()),
            })
    races = sorted(all_races.values(), key=lambda r: r.key)
    unsuppressed = [r for r in races if not r.suppressed]
    violations = sorted(
        (src, dst) for (src, dst) in direct
        if src != dst and src in sites and dst in sites)
    report = {
        "version": 1,
        "config": {
            "seeds": list(cfg.seeds),
            "scenarios": list(cfg.scenarios),
            "chaos_tasks": cfg.chaos_tasks,
            "suppressions": [
                {"cell": s.cell, "context": s.context, "reason": s.reason}
                for s in cfg.suppressions],
        },
        "runs": runs,
        "races": [r.to_dict() for r in races],
        "race_count": len(races),
        "unsuppressed_races": len(unsuppressed),
        "suppressed_races": len(races) - len(unsuppressed),
        "cross_site_matrix": {
            "sites": sorted(sites),
            "direct": {f"{src}->{dst}": n
                       for (src, dst), n in sorted(direct.items())},
            "network": {f"{src}->{dst}": n
                        for (src, dst), n in sorted(network.items())},
        },
        "cells": dict(sorted(cells.items())),
        "certificate": {
            "site_isolation": not violations,
            "isolation_violations": [f"{a}->{b}" for a, b in violations],
            "same_tick_clean": not unsuppressed,
            "shardable": not violations and not unsuppressed,
        },
    }
    return report


def report_json(report: dict[str, Any]) -> str:
    """Canonical bytes: sorted keys, fixed separators, trailing newline."""
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


def render_report(report: dict[str, Any]) -> str:
    """Human-readable summary for the CLI."""
    lines: list[str] = []
    cert = report["certificate"]
    lines.append("happens-before / isolation analysis")
    lines.append("=" * 35)
    cfg = report["config"]
    lines.append(f"scenarios: {', '.join(cfg['scenarios'])}   "
                 f"seeds: {', '.join(map(str, cfg['seeds']))}")
    lines.append("")
    lines.append(f"races: {report['race_count']} "
                 f"({report['unsuppressed_races']} unsuppressed, "
                 f"{report['suppressed_races']} suppressed)")
    for race in report["races"]:
        flag = "SUPPRESSED" if race["suppressed"] else "RACE"
        lines.append(f"  [{flag}] {race['cell']} @t={race['time']}")
        for side in ("first", "second"):
            acc = race[side]
            lines.append(f"    {acc['op']:5s} {acc['context']} "
                         f"({acc['site'] or 'client'}) {acc['detail']}")
            for frame in acc["stack"][:3]:
                lines.append(f"      {frame}")
        if race["suppressed"]:
            lines.append(f"    reason: {race['suppression']}")
    lines.append("")
    lines.append("cross-site access matrix (direct cell accesses):")
    matrix = report["cross_site_matrix"]
    for pair, n in matrix["direct"].items():
        lines.append(f"  {pair:24s} {n:8d}")
    lines.append("network messages:")
    for pair, n in matrix["network"].items():
        lines.append(f"  {pair:24s} {n:8d}")
    lines.append("")
    verdict = "SHARDABLE" if cert["shardable"] else "NOT SHARDABLE"
    lines.append(
        f"certificate: site-isolation={cert['site_isolation']} "
        f"same-tick-clean={cert['same_tick_clean']} -> {verdict}")
    if cert["isolation_violations"]:
        lines.append("  direct cross-site accesses: "
                     + ", ".join(cert["isolation_violations"]))
    return "\n".join(lines) + "\n"
