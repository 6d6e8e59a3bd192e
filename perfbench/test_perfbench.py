"""The benchmark's own tests, on the tiny ``--smoke`` inputs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import SELF_TIME_METRICS  # noqa: E402
from workloads import WORKLOADS, ReplayTrace, check  # noqa: E402

NAMES = sorted(WORKLOADS)


def make(name: str):
    cls = WORKLOADS[name]
    if cls is ReplayTrace:
        return cls(smoke=True, root=ROOT)
    return cls(smoke=True)


def deterministic(metrics: dict, units: dict) -> dict:
    """The per-layer values that must repeat exactly: all but wall times."""
    return {k: v for k, v in metrics.items() if units[k] != "s"}


@pytest.fixture(scope="module")
def per_layer_units():
    return run.units(run.load_spec(), trace=True)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_is_correct(name):
    metrics, outcomes, _ = run.measure_end_to_end(make(name), seed=3,
                                                  seconds=0)
    assert all(not o.problems for o in outcomes)
    assert all(o.failed_apps == 0 for o in outcomes)
    # peak memory is growth of the process high-water mark: an earlier
    # test in this process may already have set a higher one
    assert metrics.pop("peak_mem_mb") >= 0
    assert all(value > 0 for value in metrics.values()), metrics


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_and_other_seed_differs(name, per_layer_units,
                                                  tmp_path):
    first, out_a, _ = run.measure_per_layer(make(name), 5, None)
    second, out_b, _ = run.measure_per_layer(make(name), 5, None)
    other, out_c, _ = run.measure_per_layer(make(name), 6, None)
    assert out_a.turnaround == out_b.turnaround
    assert deterministic(first, per_layer_units) \
        == deterministic(second, per_layer_units)
    assert out_a.turnaround != out_c.turnaround
    assert deterministic(first, per_layer_units) \
        != deterministic(other, per_layer_units)


@pytest.mark.parametrize("name", NAMES)
def test_self_times_sum_to_traced_wall(name, tmp_path):
    metrics, _, problems = run.measure_per_layer(make(name), 2, tmp_path)
    assert problems == []
    attributed = sum(metrics[m] for layer, m in SELF_TIME_METRICS.items()
                     if layer != "bench")
    gap = abs(metrics["bench.traced_wall_s"] - attributed)
    assert gap <= abs(metrics["bench.tracing_overhead_s"])
    assert metrics["bench.spans"] > 0
    spans = (tmp_path / f"{name}-seed2.spans").read_text().splitlines()
    assert len([s for s in spans if not s.startswith("N ")]) \
        == metrics["bench.spans"]


def test_checks_flag_lost_tasks_and_dead_processes():
    workload = make("dag_2k")
    rep = workload.setup(1)
    workload.drive(rep)
    assert check(rep).problems == []
    run_ = rep.apps[0].run
    run_.completions.pop(next(iter(run_.completions)))
    rep.vdce.env.failed_processes.append((0.0, "p", RuntimeError("x")))
    problems = check(rep).problems
    assert any("completions" in p for p in problems)
    assert any("processes died" in p for p in problems)


def cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_metric_last(trace, tmp_path):
    done = cli("--workload", "dag_2k", "--seed", "4", "--seconds", "0",
               "--trace", trace, "--smoke", "--spans-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = run.load_spec()
    key = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in spec[key]}


def test_held_out_seed_option():
    done = cli("--workload", "dag_2k", "--held-out", "--seconds", "0",
               "--smoke")
    assert done.returncode == 0, done.stderr
    assert f"seed={run.HELD_OUT_SEED}" in done.stdout


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = cli("--workload", "dag_2k", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
