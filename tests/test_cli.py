"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.simcore import Environment
from repro.util.errors import ConfigurationError, SimulationError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_dialect_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["local", "--dialect", "corba"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "matrix-operations" in out
        assert "lu-decomposition" in out
        assert "mpi" in out

    def test_solve_idle(self, capsys):
        assert main(["solve", "--n", "40", "--idle", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "status    : completed" in out
        assert "residual" in out

    def test_solve_parallel(self, capsys):
        assert main(["solve", "--n", "40", "--idle", "--parallel"]) == 0
        assert "completed" in capsys.readouterr().out

    def test_schedule_table(self, capsys):
        assert main(["schedule", "--app", "linear-solver", "--size", "50",
                     "--idle"]) == 0
        out = capsys.readouterr().out
        assert "resource allocation table" in out
        assert "lu" in out

    def test_schedule_queue_aware(self, capsys):
        assert main(["schedule", "--app", "fourier-pipeline", "--idle",
                     "--queue-aware"]) == 0
        assert "consulted sites" in capsys.readouterr().out

    def test_schedule_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--app", "quantum-sim", "--idle"])

    def test_local_run(self, capsys):
        assert main(["local", "--app", "c3i-scenario", "--size", "8",
                     "--dialect", "mpi"]) == 0
        out = capsys.readouterr().out
        assert "real TCP" in out
        assert "plan" in out

    def test_monitor(self, capsys):
        assert main(["monitor", "--duration", "30", "--policy", "ci",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Workload" in out
        assert "reduction" in out

    def test_monitor_rejects_nan_duration(self):
        # a NaN horizon never stops: the monitors' periodic loops keep
        # the queue from draining, so the run must refuse it up front
        with pytest.raises(SimulationError, match="until=nan"):
            main(["monitor", "--duration", "nan", "--seed", "1"])


class TestRejectedNumbers:
    @pytest.mark.parametrize("argv", [
        # runs that never returned
        ["monitor", "--duration", "inf"],
        ["obs", "--sample-every", "0", "--idle", "--size", "40"],
        # checks passed, or timeouts reported, without a run
        ["analyze", "--scenario", "chaos", "--seeds", "101",
         "--max-time", "-5"],
        ["analyze", "--scenario", "chaos", "--seeds", "101",
         "--max-time", "0"],
        ["analyze", "--scenario", "chaos", "--seeds", "101",
         "--max-time", "nan"],
        ["obs", "--apps", "0"],
        ["monitor", "--hosts", "0", "--duration", "5"],
        ["solve", "--max-time", "nan"],
        ["solve", "--max-time", "-1"],
        ["obs", "--max-time", "nan"],
        ["plan", "--deadline", "nan"],
        # --size 0 used to build the default size
        ["show", "--size", "0"],
        ["schedule", "--size", "0"],
        ["plan", "--size", "0", "--deadline", "100"],
        ["local", "--size", "0"],
        ["obs", "--size", "0"],
        # a bare ValueError from int()
        ["analyze", "--seeds", "abc"],
    ], ids="_".join)
    def test_typed_error_before_any_simulation(self, argv, monkeypatch):
        def no_run(self, until=None):
            raise AssertionError("a simulation started")

        monkeypatch.setattr(Environment, "run", no_run)
        with pytest.raises(ConfigurationError):
            main(argv)


class TestObsCommand:
    def test_report_sections(self, capsys):
        assert main(["obs", "--app", "linear-solver", "--size", "40",
                     "--idle", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "observability report" in out
        assert "utilization" in out
        assert "schedule latency" in out
        assert "queue depths" in out
        assert "span inventory" in out

    def test_exports_written_and_valid(self, capsys, tmp_path):
        import json
        chrome = tmp_path / "trace.json"
        prom = tmp_path / "metrics.prom"
        jsonl = tmp_path / "spans.jsonl"
        assert main(["obs", "--app", "linear-solver", "--size", "40",
                     "--idle", "--seed", "3",
                     "--chrome", str(chrome), "--prom", str(prom),
                     "--jsonl", str(jsonl)]) == 0
        capsys.readouterr()
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        assert "vdce_apps_completed_total" in prom.read_text()
        assert all(json.loads(line)
                   for line in jsonl.read_text().splitlines())

    def test_byte_identical_for_fixed_seed(self, capsys, tmp_path):
        argv = ["obs", "--app", "fourier-pipeline", "--idle", "--seed", "5"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(argv + ["--chrome", str(a)]) == 0
        assert main(argv + ["--chrome", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestShowCommand:
    def test_show_renders_graph(self, capsys):
        assert main(["show", "--app", "linear-solver", "--size", "50"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "[lu]" in out
        assert "lower -->" in out

    def test_show_no_ports(self, capsys):
        assert main(["show", "--app", "c3i-scenario", "--no-ports"]) == 0
        out = capsys.readouterr().out
        assert "-->" in out and "lower -->" not in out


class TestArchiveReplay:
    def test_solve_archive_then_replay(self, capsys, tmp_path):
        path = str(tmp_path / "run.json")
        assert main(["solve", "--n", "40", "--idle", "--archive",
                     path]) == 0
        capsys.readouterr()
        assert main(["replay", path]) == 0
        out = capsys.readouterr().out
        assert "Post-mortem" in out
        assert "utilization" in out


class TestExperimentCommand:
    def test_monitoring_experiment(self, capsys):
        assert main(["experiment", "monitoring"]) == 0
        out = capsys.readouterr().out
        assert "monitoring filter comparison" in out

    def test_experiment_json_output(self, capsys):
        assert main(["experiment", "failure-detection", "--json"]) == 0
        out = capsys.readouterr().out
        assert '"rows"' in out


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        """`python -m repro` works as a real subprocess."""
        import subprocess
        import sys
        out = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 0
        assert "matrix-operations" in out.stdout


class TestPlanCommand:
    def test_feasible_deadline(self, capsys):
        assert main(["plan", "--app", "fourier-pipeline", "--size", "2048",
                     "--deadline", "100", "--max-hosts", "4"]) == 0
        out = capsys.readouterr().out
        assert "suffice" in out

    def test_infeasible_deadline_exit_code(self, capsys):
        assert main(["plan", "--app", "linear-solver", "--size", "200",
                     "--deadline", "0.001", "--max-hosts", "2"]) == 1
        assert "infeasible" in capsys.readouterr().out


class TestBakeoffCommand:
    def test_table_and_json(self, capsys, tmp_path):
        out_json = tmp_path / "bakeoff.json"
        assert main(["bakeoff", "--schedulers", "heft,random,optimal",
                     "--workloads", "forkjoin-small",
                     "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "forkjoin-small" in out
        assert "optimality_gap" in out
        import json
        payload = json.loads(out_json.read_text())
        assert payload["kind"] == "bakeoff"
        assert {r["scheduler"] for r in payload["rows"]} == \
            {"heft", "random", "optimal"}

    def test_check_against_fresh_baseline(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        args = ["bakeoff", "--schedulers", "heft,site",
                "--workloads", "pipeline-small"]
        assert main(args + ["--json", str(baseline)]) == 0
        capsys.readouterr()
        assert main(args + ["--check", str(baseline)]) == 0
        assert "OK: no optimality-gap regressions" in \
            capsys.readouterr().out

    def test_obs_summary(self, capsys):
        assert main(["bakeoff", "--schedulers", "heft,min-load",
                     "--workloads", "forkjoin-small", "--obs"]) == 0
        out = capsys.readouterr().out
        assert "schedule rounds observed: 2" in out
        assert "2 schedule-round spans" in out

    def test_unknown_scheduler_fails(self):
        from repro.util.errors import SchedulingError
        with pytest.raises(SchedulingError, match="unknown scheduler"):
            main(["bakeoff", "--schedulers", "annealing",
                  "--workloads", "forkjoin-small"])
