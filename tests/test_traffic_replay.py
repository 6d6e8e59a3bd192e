"""End-to-end replay: lazy streaming, DRF dispatch, reports, CLI.

The CI replay contract: same config → byte-identical JSON report; all
accounting invariants (:func:`repro.traffic.check_report`) hold; the
DRF per-dispatch audit records zero violations; and the heap never
materialises the arrival stream (one pending arrival event at a time).
"""

import json

import pytest

from repro.cli import main
from repro.bakeoff import ReplayBakeoffConfig, run_replay_bakeoff
from repro.obs import Observability
from repro.repository import TenantRecord
from repro.simcore import Environment
from repro.traffic import (
    CapacityBackend,
    DRFAllocator,
    JobRequest,
    ReplayConfig,
    ReplayEngine,
    TraceError,
    check_report,
    dump_trace,
    make_tenants,
    run_replay,
)
from repro.traffic.generators import OpenLoopGenerator
from repro.traffic.templates import TEMPLATE_NAMES
from repro.traffic.vdce_replay import VdceReplayBackend
from repro.util.errors import ConfigurationError, RepositoryError
from repro.util.rng import RngRegistry
from repro.workloads import quiet_testbed

SMALL = dict(arrivals=1500, users=100, tenants=5, rate_per_s=30.0)

#: ``repro replay`` arguments no tenant contract or arrival process can
#: honour: negative or NaN weights, rates, quotas and think times
UNHONOURABLE = [
    ["--weight-skew", "-2"],
    ["--weight-skew", "nan"],
    ["--rate-limit", "-1"],
    ["--rate-limit", "nan"],
    ["--quota-memory", "nan"],
    ["--burst", "0", "--rate-limit", "1"],
    ["--quota-procs", "-1"],
    ["--max-pending", "-1"],
    ["--generator", "synthetic-alibaba", "--rate", "0"],
    ["--generator", "synthetic-alibaba", "--rate", "-3"],
    ["--generator", "synthetic-alibaba", "--rate", "nan"],
    ["--rate", "nan"],
    ["--generator", "closed-loop", "--think-time", "nan"],
]


def small_config(**overrides):
    return ReplayConfig(**{**SMALL, **overrides})


class TestReplayEndToEnd:
    @pytest.mark.parametrize("generator", ["open-loop", "closed-loop",
                                           "synthetic-alibaba"])
    def test_invariants_hold(self, generator):
        report = run_replay(small_config(generator=generator))
        assert check_report(report) == []
        totals = report.totals()
        assert totals["arrivals"] == 1500
        assert totals["drf_violations"] == 0
        assert totals["drf_decisions"] >= totals["dispatched"]

    def test_same_seed_byte_identical_json(self):
        first = run_replay(small_config()).to_json()
        second = run_replay(small_config()).to_json()
        assert first == second
        doc = json.loads(first)
        assert doc["kind"] == "traffic-replay"
        assert len(doc["tenants"]) == 5

    def test_different_seed_differs(self):
        first = run_replay(small_config()).to_json()
        second = run_replay(small_config(seed=99)).to_json()
        assert first != second

    def test_trace_file_replay(self, tmp_path):
        reqs = list(OpenLoopGenerator(
            RngRegistry(3).stream("t"), 500, rate_per_s=20.0, users=40,
            tenants=4, templates=TEMPLATE_NAMES))
        path = tmp_path / "trace.txt"
        dump_trace(reqs, path)
        config = small_config(generator="trace", trace_path=str(path),
                              arrivals=500, users=40, tenants=4)
        report = run_replay(config)
        assert check_report(report) == []
        assert report.totals()["arrivals"] == 500

    def test_quotas_bound_concurrency(self):
        # 2-proc quota per tenant on a 256-proc federation: utilization
        # collapses but nothing is lost — jobs just wait
        report = run_replay(small_config(arrivals=400, quota_procs=2))
        assert check_report(report) == []
        totals = report.totals()
        assert totals["completed"] == totals["admitted"]

    def test_throttling_and_backpressure_account(self):
        report = run_replay(small_config(
            arrivals=800, rate_limit_per_s=1.0, burst=2, max_pending=10))
        assert check_report(report) == []
        totals = report.totals()
        assert totals["rejected"] > 0  # backpressure engaged
        assert totals["arrivals"] == \
            totals["admitted"] + totals["rejected"]

    def test_weight_tilts_waiting_under_backlog(self):
        # discrete progressive filling self-replaces at full saturation
        # (a completion drops the completer's share, so it usually wins
        # the very next pick) — weights bite when the pump faces a real
        # choice: filling from empty against queued backlogs.  There the
        # heavy tenant locks in more slots, drains sooner, waits less.
        def mean_waits(weight):
            env = Environment()
            tenants = {
                "heavy": TenantRecord(name="heavy", weight=weight),
                "light": TenantRecord(name="light"),
            }
            alloc = DRFAllocator(8, 8 * 512.0, tenants)
            backend = CapacityBackend(env, ("s1",), 8)
            reqs = [JobRequest(job=f"{t}-{i:02d}", nproc=2,
                               submit_time_s=0.0, duration_s=10.0,
                               user=f"u-{t}", tenant=t)
                    for t in ("heavy", "light") for i in range(20)]
            engine = ReplayEngine(env, reqs, tenants, alloc, backend)
            out = engine.run()
            assert out.drf_violations == 0
            assert all(s.dispatched == s.completed == 20
                       for s in out.tenants.values())
            return {t: s.wait_sum_s / s.dispatched
                    for t, s in out.tenants.items()}

        weighted = mean_waits(4.0)
        assert weighted["heavy"] < weighted["light"]
        flat = mean_waits(1.0)
        assert weighted["heavy"] < flat["heavy"]

    def test_obs_mirrors_dispatches(self):
        obs = Observability()
        report = run_replay(small_config(arrivals=300), obs=obs)
        dispatched = obs.metrics.counter(
            "traffic_dispatched_total").total()
        assert dispatched == report.totals()["dispatched"]
        assert obs.metrics.counter("traffic_completed_total").total() \
            == report.totals()["completed"]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="generator"):
            run_replay(small_config(generator="nope"))
        with pytest.raises(ConfigurationError, match="trace"):
            run_replay(small_config(generator="trace"))
        with pytest.raises(ConfigurationError, match="tenants"):
            run_replay(small_config(users=3, tenants=5))

    def test_lazy_streaming_one_pending_arrival(self):
        """The tentpole's memory contract: the engine holds exactly one
        un-submitted arrival in the event heap at any instant."""
        env = Environment()
        tenants = make_tenants(2)
        alloc = DRFAllocator(16, 16 * 512.0, tenants)
        backend = CapacityBackend(env, ("s1",), 16)
        arrivals = OpenLoopGenerator(
            RngRegistry(1).stream("t"), 200, rate_per_s=50.0, users=10,
            tenants=2, templates=TEMPLATE_NAMES)
        engine = ReplayEngine(env, arrivals, tenants, alloc, backend)
        seen = []
        original = engine._arrive

        def spy(req):
            # before this arrival is consumed no later one may exist
            seen.append(req.job)
            original(req)

        engine._arrive = spy
        engine.prime()
        env.run()
        outcome = engine.finalize()
        assert seen == sorted(seen)
        assert len(seen) == 200
        total = sum(s.completed for s in outcome.tenants.values())
        dispatched = sum(s.dispatched for s in outcome.tenants.values())
        assert total == dispatched


class TestReplayCli:
    def test_cli_replay_check_and_json(self, tmp_path, capsys):
        out = tmp_path / "replay.json"
        args = ["replay", "--arrivals", "800", "--users", "50",
                "--tenants", "5", "--seed", "4", "--check",
                "--json", str(out)]
        assert main(args) == 0
        text = capsys.readouterr().out
        assert "OK: accounting and DRF invariants hold" in text
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first  # byte-identical re-run

    @pytest.mark.parametrize(
        "extra", UNHONOURABLE,
        ids=lambda args: "_".join(arg.removeprefix("--") for arg in args))
    def test_cli_rejects_what_it_cannot_honour(self, extra, monkeypatch):
        def started(self, until=None):
            raise AssertionError("the replay started running")

        monkeypatch.setattr(Environment, "run", started)
        with pytest.raises((RepositoryError, TraceError)):
            main(["replay", "--arrivals", "200", "--users", "50",
                  "--check", *extra])

    def test_cli_replay_prom_artifact(self, tmp_path):
        prom = tmp_path / "tenants.prom"
        assert main(["replay", "--arrivals", "300", "--users", "20",
                     "--tenants", "4", "--prom", str(prom)]) == 0
        text = prom.read_text()
        assert "traffic_admitted_total" in text
        assert 'tenant="t03"' in text

    def test_cli_replay_trace_mode(self, tmp_path):
        reqs = list(OpenLoopGenerator(
            RngRegistry(3).stream("t"), 100, rate_per_s=20.0, users=20,
            tenants=4, templates=TEMPLATE_NAMES))
        path = tmp_path / "trace.txt"
        dump_trace(reqs, path)
        assert main(["replay", "--trace", str(path), "--users", "20",
                     "--tenants", "4", "--check"]) == 0

    def test_cli_archive_mode_still_works(self, tmp_path):
        # back-compat: a positional path renders a post-mortem archive
        from repro.viz import archive_run
        from repro.workloads import linear_solver_graph, quiet_testbed
        vdce = quiet_testbed(seed=2, obs=Observability())
        vdce.start()
        graph = linear_solver_graph(vdce.registry, n=40)
        run = vdce.run_application(graph, "syracuse", max_sim_time_s=600)
        assert run.status == "completed"
        path = tmp_path / "archive.json"
        archive_run(run, path, tracer=vdce.tracer)
        assert main(["replay", str(path)]) == 0


class TestReplayBakeoff:
    def test_schedulers_scored_under_load(self):
        config = ReplayBakeoffConfig(
            schedulers=("site", "round-robin"), arrivals=60, users=30,
            tenants=3)
        result = run_replay_bakeoff(config)
        assert [row["scheduler"] for row in result.rows] == \
            ["site", "round-robin"]
        for row in result.rows:
            assert row["dispatched"] == row["completed"] == 60
            assert row["drf_violations"] == 0
            assert row["predicted_work_s"] > 0
        assert result.to_json() == run_replay_bakeoff(config).to_json()

    def test_cli_bakeoff_replay(self, tmp_path, capsys):
        out = tmp_path / "bo.json"
        assert main(["bakeoff", "--replay", "--replay-arrivals", "40",
                     "--replay-tenants", "2", "--schedulers",
                     "site,min-load", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "replay-bakeoff"
        assert len(doc["rows"]) == 2
        assert "replay bake-off" in capsys.readouterr().out


class TestVdceReplayBackend:
    def test_a_job_costs_only_its_submit_process(self, monkeypatch):
        vdce = quiet_testbed(seed=1)
        vdce.start()
        backend = VdceReplayBackend(vdce, sites=("syracuse",))
        spawned = []
        spawn = Environment.process

        def counting(env, gen, name=None):
            spawned.append(name)
            return spawn(env, gen, name=name)

        monkeypatch.setattr(Environment, "process", counting)
        done = []
        req = JobRequest(job="j1", nproc=1, submit_time_s=0.0,
                         duration_s=1.0, user="u0001",
                         template=TEMPLATE_NAMES[0])
        backend.start(req, lambda: done.append(vdce.now))
        assert [name.split(":")[0] for name in spawned] == ["submit"]
        assert backend.in_flight == 1
        while not done and vdce.now < 600.0:
            vdce.env.run(until=vdce.now + 5.0)
        [run] = [item.run for item in backend.runs]
        assert run.status == "completed"
        assert done == [run.finished_at]
        assert backend.in_flight == 0
