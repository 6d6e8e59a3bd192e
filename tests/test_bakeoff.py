"""The bake-off harness: determinism, scoring invariants, CI gate.

The contract CI relies on is byte-identity: one :class:`BakeoffConfig`
-> one JSON byte stream, run after run.  The scoring invariants are the
reasons the numbers mean anything: gaps non-negative under the common
predicted objective, the optimal row at gap zero, utilization and
imbalance in their physical ranges.
"""

from __future__ import annotations

import json

import pytest

from repro.bakeoff import (
    DEFAULT_WORKLOADS,
    BakeoffConfig,
    compare_to_baseline,
    check_json_against_baseline,
    host_busy_seconds,
    resolve_schedulers,
    resolve_workloads,
    run_bakeoff,
)
from repro.obs import Observability
from repro.scheduling import available_schedulers
from repro.scheduling.makespan import evaluate_schedule
from repro.util.errors import ConfigurationError


def small_config(**overrides):
    defaults = dict(
        schedulers=("heft", "min-load", "optimal", "random"),
        workloads=("forkjoin-small",), seed=0)
    defaults.update(overrides)
    return BakeoffConfig(**defaults)


@pytest.fixture(scope="module")
def small_result(registry):
    return run_bakeoff(small_config(), registry=registry)


class TestDeterminism:
    def test_same_seed_byte_identical_json(self, registry):
        """Satellite 3's regression: the whole pipeline — federation
        build, load injection, every scheduler's rng draws — replays to
        the same bytes for the same seed."""
        config = small_config()
        first = run_bakeoff(config, registry=registry).to_json()
        second = run_bakeoff(config, registry=registry).to_json()
        assert first == second
        assert first.endswith("\n")

    def test_different_seed_changes_payload(self, registry):
        a = run_bakeoff(small_config(seed=0), registry=registry).to_json()
        b = run_bakeoff(small_config(seed=1), registry=registry).to_json()
        assert a != b

    def test_dropping_a_scheduler_leaves_others_untouched(self, registry):
        """Per-(scheduler, workload) rng spawning: removing a contestant
        never perturbs another's draws — the random rows survive."""
        full = run_bakeoff(small_config(), registry=registry)
        solo = run_bakeoff(
            small_config(schedulers=("random",)), registry=registry)
        assert (full.score_for("random", "forkjoin-small")
                == solo.score_for("random", "forkjoin-small"))


class TestScoringInvariants:
    def test_optimal_row_has_zero_gap(self, small_result):
        score = small_result.score_for("optimal", "forkjoin-small")
        assert score.optimality_gap == pytest.approx(0.0, abs=1e-12)

    def test_gaps_non_negative(self, small_result):
        """The common predicted objective makes the reference a true
        lower bound for every contestant."""
        for score in small_result.scores:
            assert score.optimality_gap is not None
            assert score.optimality_gap >= -1e-9, \
                f"{score.scheduler}: negative gap {score.optimality_gap}"

    def test_physical_ranges(self, small_result):
        for score in small_result.scores:
            assert score.predicted_makespan_s > 0
            assert score.simulated_makespan_s > 0
            assert 0.0 < score.utilization <= 1.0 + 1e-9
            assert score.imbalance >= 1.0 - 1e-9
            assert 0.0 <= score.remote_fraction <= 1.0
            assert score.total_transfer_s >= 0.0

    def test_prediction_vs_simulation_diverge(self, small_result):
        """Loads drift after the last monitoring report, so the
        repository view never equals ground truth exactly."""
        for score in small_result.scores:
            assert (score.predicted_makespan_s
                    != score.simulated_makespan_s)

    def test_optimal_stats_recorded(self, small_result):
        stats = small_result.optimal["forkjoin-small"]
        assert stats.proven_optimal
        assert stats.nodes_explored > 0
        assert stats.makespan_s > 0

    def test_score_for_unknown_cell(self, small_result):
        with pytest.raises(KeyError):
            small_result.score_for("heft", "no-such-workload")

    def test_host_busy_accounts_all_hosts(self, registry, small_result):
        # indirectly validated by utilization; direct check of the helper
        from repro.testing import build_federation
        from repro.scheduling import SchedulerContext, create_scheduler
        from repro.workloads import fork_join_graph
        fed = build_federation(registry=registry)
        graph = fork_join_graph(registry, width=2, size=256)
        ctx = SchedulerContext(repositories=fed.repositories,
                               topology=fed.topology,
                               local_site="syracuse")
        table = create_scheduler("heft", ctx).schedule(graph)
        timeline = evaluate_schedule(graph, table, fed.topology)
        busy = host_busy_seconds(table, timeline)
        assert set(busy) == table.hosts()
        assert sum(busy.values()) == pytest.approx(
            sum(timeline.finish[n] - timeline.start[n]
                for n in table.entries))


class TestRendering:
    def test_render_has_one_block_per_workload(self, small_result):
        text = small_result.render()
        assert "forkjoin-small" in text
        assert "optimal" in text and "heft" in text
        assert "nodes explored" in text  # the reference's provenance line

    def test_large_workload_skips_reference(self, registry):
        result = run_bakeoff(
            small_config(schedulers=("heft",), optimal_task_limit=3),
            registry=registry)
        assert result.optimal == {}
        assert "no optimal reference" in result.render()
        assert result.score_for("heft",
                                "forkjoin-small").optimality_gap is None


class TestResolvers:
    def test_all_and_default_specs(self):
        assert resolve_schedulers("all") == tuple(available_schedulers())
        assert resolve_workloads("default") == tuple(DEFAULT_WORKLOADS)

    def test_comma_lists(self):
        assert resolve_schedulers("heft, random") == ("heft", "random")
        assert resolve_workloads("layered-a") == ("layered-a",)

    def test_empty_and_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_schedulers(",")
        with pytest.raises(ConfigurationError):
            resolve_workloads(",")
        with pytest.raises(ConfigurationError, match="unknown workload"):
            resolve_workloads("galaxy-sim")

    def test_unknown_workload_at_run_time(self, registry):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            run_bakeoff(small_config(workloads=("galaxy-sim",)),
                        registry=registry)


class TestBaselineGate:
    def test_self_comparison_passes(self, small_result):
        payload = json.loads(small_result.to_json())
        assert compare_to_baseline(payload, payload) == []

    def test_gap_regression_detected(self, small_result):
        payload = json.loads(small_result.to_json())
        current = json.loads(small_result.to_json())
        for row in current["rows"]:
            if row["scheduler"] == "heft":
                row["optimality_gap"] += 0.25
        failures = compare_to_baseline(current, payload, tolerance=0.10)
        assert len(failures) == 1
        assert "heft" in failures[0] and "regressed" in failures[0]

    def test_within_tolerance_passes(self, small_result):
        payload = json.loads(small_result.to_json())
        current = json.loads(small_result.to_json())
        for row in current["rows"]:
            if row["scheduler"] == "heft":
                row["optimality_gap"] += 0.05
        assert compare_to_baseline(current, payload, tolerance=0.10) == []

    def test_missing_cell_detected(self, small_result):
        payload = json.loads(small_result.to_json())
        current = json.loads(small_result.to_json())
        current["rows"] = [r for r in current["rows"]
                           if r["scheduler"] != "min-load"]
        failures = compare_to_baseline(current, payload)
        assert any("missing" in f for f in failures)

    def test_lost_gap_detected(self, small_result):
        payload = json.loads(small_result.to_json())
        current = json.loads(small_result.to_json())
        for row in current["rows"]:
            row["optimality_gap"] = None
        failures = compare_to_baseline(current, payload)
        assert any("computed none" in f for f in failures)

    def test_random_exempt_from_gap_gate(self, small_result):
        payload = json.loads(small_result.to_json())
        current = json.loads(small_result.to_json())
        for row in current["rows"]:
            if row["scheduler"] == "random":
                row["optimality_gap"] += 5.0
        assert compare_to_baseline(current, payload) == []

    def test_check_json_reads_baseline_file(self, small_result, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(small_result.to_json())
        assert check_json_against_baseline(small_result.to_json(),
                                           str(baseline)) == []

    def test_committed_baseline_matches_current_code(self, registry):
        """The committed BENCH_bakeoff.json is reproducible: the same
        config re-run today shows no gap regressions against it."""
        import pathlib
        baseline_path = pathlib.Path(__file__).parent.parent \
            / "BENCH_bakeoff.json"
        baseline = json.loads(baseline_path.read_text())
        config = BakeoffConfig(
            schedulers=tuple(baseline["config"]["schedulers"]),
            workloads=tuple(baseline["config"]["workloads"]),
            seed=baseline["config"]["seed"])
        result = run_bakeoff(config, registry=registry)
        assert compare_to_baseline(json.loads(result.to_json()),
                                   baseline) == []


class TestObservability:
    def test_schedule_round_spans_and_counter(self, registry):
        obs = Observability()
        config = small_config()
        run_bakeoff(config, registry=registry, obs=obs)
        cells = len(config.schedulers) * len(config.workloads)
        spans = obs.spans.finished("schedule-round")
        assert len(spans) == cells
        assert obs.metrics.counter(
            "bakeoff_rounds_total").total() == cells
        # spans carry the (scheduler, workload) identity and never overlap
        names = {s.name for s in spans}
        assert "bakeoff:heft:forkjoin-small" in names
