"""The happens-before sanitizer: planted races, isolation, determinism.

Positive controls first — the zero-findings certificate over the chaos
and bakeoff scenarios is only evidence if a planted same-tick
write/write conflict and a planted cross-site mutation demonstrably
trip the detector.  Then the negative controls (causally ordered
same-tick accesses stay clean), the canonical-report determinism the CI
job pins, and the ``repro analyze`` CLI surface.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.analysis import AnalysisSession, AnalyzeConfig, run_analysis
from repro.analysis import hooks
from repro.analysis.hb import HBRecorder
from repro.analysis.runner import (
    Suppression,
    apply_suppressions,
    report_json,
    render_report,
)
from repro.cli import main
from repro.simcore import Environment


def attach(env: Environment, sites=("syracuse", "rome")) -> AnalysisSession:
    return AnalysisSession(env, sites=sites).attach()


class TestPlantedRaces:
    def test_same_tick_write_write_race_detected(self):
        """Two unordered processes writing one cell at one tick: a race."""
        env = Environment()
        with AnalysisSession(env, sites=("syracuse",)) as session:
            rec = session.recorder

            def writer(env):
                rec.write("syracuse", "planted", "w")
                yield env.timeout(1.0)

            env.process(writer(env), name="writer-a")
            env.process(writer(env), name="writer-b")
            env.run()
        races = session.recorder.races
        assert len(races) == 1
        race = races[0]
        assert race.cell == ("syracuse", "planted")
        assert race.first.write and race.second.write
        assert {race.first.label, race.second.label} \
            == {"writer-a", "writer-b"}
        assert race.first.stack and race.second.stack

    def test_same_tick_read_write_race_detected(self):
        env = Environment()
        with AnalysisSession(env, sites=("syracuse",)) as session:
            rec = session.recorder

            def reader(env):
                rec.read("syracuse", "planted")
                yield env.timeout(1.0)

            def writer(env):
                rec.write("syracuse", "planted")
                yield env.timeout(1.0)

            env.process(reader(env), name="r")
            env.process(writer(env), name="w")
            env.run()
        assert len(session.recorder.races) == 1

    def test_same_tick_read_read_is_clean(self):
        env = Environment()
        with AnalysisSession(env, sites=("syracuse",)) as session:
            rec = session.recorder

            def reader(env):
                rec.read("syracuse", "planted")
                yield env.timeout(1.0)

            env.process(reader(env), name="r1")
            env.process(reader(env), name="r2")
            env.run()
        assert session.recorder.races == []

    def test_trigger_ordered_same_tick_writes_are_clean(self):
        """A triggered event is a causal edge: same tick, no race."""
        env = Environment()
        with AnalysisSession(env, sites=("syracuse",)) as session:
            rec = session.recorder

            def first(env, gate):
                rec.write("syracuse", "planted", "first")
                gate.succeed()
                yield env.timeout(1.0)

            def second(env, gate):
                yield gate
                rec.write("syracuse", "planted", "second")

            gate = env.event()
            env.process(first(env, gate), name="first")
            env.process(second(env, gate), name="second")
            env.run()
        assert session.recorder.races == []

    def test_different_ticks_are_clean(self):
        env = Environment()
        with AnalysisSession(env, sites=("syracuse",)) as session:
            rec = session.recorder

            def writer(env, delay):
                yield env.timeout(delay)
                rec.write("syracuse", "planted")

            env.process(writer(env, 1.0), name="a")
            env.process(writer(env, 2.0), name="b")
            env.run()
        assert session.recorder.races == []


class TestPlantedIsolationViolation:
    def test_cross_site_mutation_flagged(self):
        """A rome-tagged process writing syracuse state is a violation."""
        env = Environment()
        with AnalysisSession(env, sites=("syracuse", "rome")) as session:
            rec = session.recorder

            def trespasser(env):
                rec.write("syracuse", "resource_performance",
                          "mark_down(h1)")
                yield env.timeout(1.0)

            proc = env.process(trespasser(env), name="rome-daemon")
            rec.tag_process(proc, "rome")
            env.run()
        rec = session.recorder
        assert rec.direct_matrix.get(("rome", "syracuse"), 0) == 1
        assert ("rome", "syracuse", 1) in rec.isolation_violations()

    def test_own_site_mutation_is_not_a_violation(self):
        env = Environment()
        with AnalysisSession(env, sites=("syracuse", "rome")) as session:
            rec = session.recorder

            def owner(env):
                rec.write("rome", "resource_performance")
                yield env.timeout(1.0)

            proc = env.process(owner(env), name="rome-daemon")
            rec.tag_process(proc, "rome")
            env.run()
        assert session.recorder.isolation_violations() == []


class TestSuppressions:
    def plant_race(self):
        env = Environment()
        with AnalysisSession(env, sites=("syracuse",)) as session:
            rec = session.recorder

            def writer(env):
                rec.write("syracuse", "wal", "append")
                yield env.timeout(1.0)

            env.process(writer(env), name="a")
            env.process(writer(env), name="b")
            env.run()
        return session.recorder

    def test_matching_glob_suppresses(self):
        rec = self.plant_race()
        assert len(rec.unsuppressed_races()) == 1
        apply_suppressions(rec.races, (Suppression(
            cell="syracuse/wal", reason="single-writer by construction"),))
        assert rec.unsuppressed_races() == []
        assert rec.races[0].suppressed
        assert rec.races[0].suppression == "single-writer by construction"

    def test_non_matching_glob_does_not_suppress(self):
        rec = self.plant_race()
        apply_suppressions(rec.races, (Suppression(cell="rome/*"),))
        assert len(rec.unsuppressed_races()) == 1

    def test_context_glob_must_match_too(self):
        rec = self.plant_race()
        apply_suppressions(rec.races, (Suppression(
            cell="syracuse/*", context="no-such-context"),))
        assert len(rec.unsuppressed_races()) == 1
        apply_suppressions(rec.races, (Suppression(
            cell="syracuse/*", context="a"),))
        assert rec.unsuppressed_races() == []


class TestSessionLifecycle:
    def test_attach_is_exclusive(self):
        env1, env2 = Environment(), Environment()
        with AnalysisSession(env1):
            with pytest.raises(RuntimeError):
                AnalysisSession(env2).attach()

    def test_detach_restores_plain_dispatch(self, monkeypatch):
        env = Environment()
        with AnalysisSession(env):
            assert env._hb is not None
            assert hooks.HB is not None
        # after detach a ping-pong run makes no recorder call at all
        calls: list[str] = []
        for name, method in list(vars(HBRecorder).items()):
            if name.startswith("__") or not inspect.isfunction(method):
                continue

            def counted(*args, _name=name, _method=method, **kwargs):
                calls.append(_name)
                return _method(*args, **kwargs)

            monkeypatch.setattr(HBRecorder, name, counted)

        def ponger(env):
            for _ in range(100):
                yield env.timeout(1.0)

        for _ in range(10):
            env.process(ponger(env))
        env.run()
        assert env.now == 100.0
        assert calls == []
        assert env._hb is None
        assert hooks.HB is None

    def test_instrumented_run_matches_plain_run(self):
        """The instrumented loop must replay engine semantics exactly:
        the same dispatch order, clock, return value and error, for
        every ``until`` form."""
        def workers(env, out):
            def worker(env, name, delay):
                yield env.timeout(delay)
                out.append((name, env.now))
                yield env.timeout(delay)
                out.append((name, env.now))
                return name

            first = env.process(worker(env, "a", 1.0))
            env.process(worker(env, "b", 1.5))
            env.call_later(2.0, lambda _: out.append(("cb", env.now)),
                           None)
            return first

        def drain(env, out):
            workers(env, out)
            return env.run()

        def horizon_slices(env, out):
            workers(env, out)
            return [env.run(until=t) for t in (0.5, 1.5, 1.5, 2.0, 9.0)]

        def pending_target(env, out):
            return env.run(until=workers(env, out))

        def processed_target(env, out):
            first = workers(env, out)
            env.run(until=first)
            return env.run(until=first), env.now

        def failed_target(env, out):
            def crash(env):
                yield env.timeout(1.5)
                raise RuntimeError("crashed")

            workers(env, out)
            return env.run(until=env.process(crash(env)))

        def deadlock(env, out):
            workers(env, out)
            return env.run(until=env.event())

        def horizon_in_the_past(env, out):
            workers(env, out)
            env.run(until=2.5)
            return env.run(until=1.0)

        def nan_horizon(env, out):
            workers(env, out)
            return env.run(until=float("nan"))

        def last_callback_raises(env, out):
            workers(env, out)
            env.call_later(5.0, lambda _: [][0], None)
            return env.run()

        def trace_run(case, session_on: bool):
            env = Environment()
            out: list[tuple[str, float]] = []
            ctx = (AnalysisSession(env) if session_on else None)
            if ctx:
                ctx.attach()
            try:
                outcome = ("returned", case(env, out))
            except Exception as exc:
                outcome = (type(exc).__name__, str(exc))
            finally:
                if ctx:
                    ctx.detach()
            return out, env.now, outcome

        for case in (drain, horizon_slices, pending_target,
                     processed_target, failed_target, deadlock,
                     horizon_in_the_past, nan_horizon,
                     last_callback_raises):
            plain = trace_run(case, False)
            assert plain == trace_run(case, True), case.__name__


SMALL = AnalyzeConfig(seeds=(101,), chaos_tasks=30)


class TestRunAnalysis:
    @pytest.fixture(scope="class")
    def report(self):
        return run_analysis(SMALL)

    def test_zero_unsuppressed_races_and_shardable(self, report):
        assert report["unsuppressed_races"] == 0
        cert = report["certificate"]
        assert cert["site_isolation"] is True
        assert cert["isolation_violations"] == []
        assert cert["same_tick_clean"] is True
        assert cert["shardable"] is True

    def test_all_cross_site_traffic_flows_through_network(self, report):
        matrix = report["cross_site_matrix"]
        sites = set(matrix["sites"])
        assert sites == {"rome", "syracuse"}
        for pair in matrix["direct"]:
            src, dst = pair.split("->")
            assert not (src in sites and dst in sites and src != dst), (
                f"direct cross-site access {pair}")
        # the scenarios genuinely cross sites — via Network messages
        assert any(src in sites and dst in sites and src != dst
                   for src, dst in (p.split("->")
                                    for p in matrix["network"]))

    def test_tracked_cells_cover_the_shared_state(self, report):
        cells = set(report["cells"])
        # submission lands at rome (first site in sorted order), so the
        # execution-table and task-performance cells live there
        for expected in ("rome/task_performance",
                         "rome/sm-exec",
                         "rome/wal",
                         "rome/resource_performance",
                         "syracuse/resource_performance",
                         "syracuse/wal"):
            assert expected in cells, f"untracked shared state {expected}"

    def test_every_run_reaches_a_terminal_state(self, report):
        assert len(report["runs"]) == 2  # 2 scenarios x 1 seed
        for run in report["runs"]:
            meta = run["meta"]
            if run["scenario"] == "chaos":
                assert meta["status"] in ("completed", "timeout", "rejected")
            else:
                assert set(meta["status"].values()) == {"completed"}

    def test_report_bytes_are_deterministic_per_seed(self, report):
        again = run_analysis(SMALL)
        assert report_json(again) == report_json(report)

    def test_render_report_carries_the_verdict(self, report):
        text = render_report(report)
        assert "SHARDABLE" in text
        assert "cross-site access matrix" in text

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_analysis(AnalyzeConfig(scenarios=("nope",)))


class TestMembershipUnderSanitizer:
    def test_membership_enabled_run_stays_isolated_and_race_free(self):
        """The federation acceptance probe: heartbeats, quarantine,
        degraded re-queue, and rejoin catch-up all run under the
        sanitizer — no same-tick races, every cross-site interaction
        via Network."""
        from repro.faults import FaultPlan, LinkFlap
        from repro.workloads import linear_solver_graph, quiet_testbed

        vdce = quiet_testbed(seed=7)
        vdce.start()
        vdce.enable_membership()
        session = AnalysisSession(vdce.env, sites=vdce.world.sites)
        with session:
            session.track_vdce(vdce)
            vdce.apply_fault_plan(FaultPlan([
                LinkFlap("syracuse", "rome", at=6.0, down_s=12.0,
                         up_s=10.0, cycles=2)]))
            graph = linear_solver_graph(vdce.registry, n=60)
            sites = sorted(vdce.world.sites)
            for i, nid in enumerate(graph.nodes):
                graph.node(nid).properties.preferred_site = \
                    sites[i % len(sites)]
            process, run = vdce.submit(graph, sites[0], k_remote_sites=1)
            deadline = vdce.now + 2000.0
            while not process.triggered and vdce.now < deadline:
                vdce.env.run(until=vdce.now + 5.0)
            # ride through the whole flap schedule (last heal at t=50)
            # so quarantine/rejoin/catch-up run under the sanitizer too
            while vdce.now < 60.0:
                vdce.env.run(until=vdce.now + 5.0)
        rec = session.recorder
        assert run.status == "completed"
        assert rec.unsuppressed_races() == []
        assert rec.isolation_violations() == []
        # the flap genuinely exercised the membership machinery
        events = [e["event"]
                  for e in vdce.federation.daemon("syracuse").events]
        assert "quarantine" in events and "rejoin" in events


class TestAnalyzeCli:
    def test_analyze_bakeoff_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        rc = main(["analyze", "--seeds", "101", "--scenario", "bakeoff",
                   "--json", str(out_path)])
        assert rc == 0
        assert "SHARDABLE" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["certificate"]["shardable"] is True
        assert doc["unsuppressed_races"] == 0

    def test_analyze_rejects_bad_scenario(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--scenario", "bogus"])
