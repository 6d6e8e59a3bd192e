"""Visualization views fed from an exported trace.

The three paper views (section 2.3.2) were previously exercised only
against live in-process runs.  These tests drive them from *exported*
observability data instead: the tracer is round-tripped through the
JSONL exporter (``trace_to_jsonl`` / ``tracer_from_jsonl``), and the
Application Performance view is cross-checked against the task-execution
spans the obs subsystem recorded for the same run.
"""

from __future__ import annotations

import pytest

from repro.obs import Observability
from repro.obs.export import tracer_from_jsonl, trace_to_jsonl
from repro.viz import ApplicationPerformanceView, ComparativeView, WorkloadView
from repro.workloads import (
    linear_solver_graph,
    nynet_testbed,
    quiet_testbed,
    random_layered_graph,
)


@pytest.fixture(scope="module")
def observed_run():
    """One instrumented layered-DAG run: (vdce, obs, run)."""
    obs = Observability()
    vdce = quiet_testbed(seed=19, obs=obs)
    vdce.start()
    graph = random_layered_graph(vdce.registry, layers=4, width=3, seed=5)
    run = vdce.run_application(graph, "syracuse", max_sim_time_s=600,
                               queue_aware=True)
    assert run.status == "completed"
    return vdce, obs, run


@pytest.fixture(scope="module")
def loaded_run():
    """A run on the loaded NYNET testbed, so sm:db-update records exist."""
    vdce = nynet_testbed(seed=4, hosts_per_site=3, with_loads=True,
                         obs=Observability())
    vdce.start()
    vdce.warm_up(60.0)
    graph = linear_solver_graph(vdce.registry, n=40)
    run = vdce.run_application(graph, "syracuse", max_sim_time_s=600)
    assert run.status == "completed"
    return vdce, run


class TestWorkloadViewFromExportedTrace:
    def test_jsonl_round_trip_preserves_series(self, loaded_run):
        vdce, _run = loaded_run
        rebuilt = tracer_from_jsonl(trace_to_jsonl(vdce.tracer))
        live = WorkloadView(vdce.tracer)
        exported = WorkloadView(rebuilt)
        assert exported.series() == live.series()
        assert exported.latest() == live.latest()

    def test_render_and_heatmap_identical_after_round_trip(self, loaded_run):
        vdce, _run = loaded_run
        rebuilt = tracer_from_jsonl(trace_to_jsonl(vdce.tracer))
        assert WorkloadView(rebuilt).render() == \
            WorkloadView(vdce.tracer).render()
        assert WorkloadView(rebuilt).heatmap() == \
            WorkloadView(vdce.tracer).heatmap()

    def test_rebuilt_view_sees_every_monitored_host(self, loaded_run):
        vdce, _run = loaded_run
        rebuilt = tracer_from_jsonl(trace_to_jsonl(vdce.tracer))
        latest = WorkloadView(rebuilt).latest()
        hosts = {h.address for h in vdce.world.all_hosts()}
        assert hosts <= set(latest)

    def test_empty_tracer_round_trip_renders_placeholder(self):
        rebuilt = tracer_from_jsonl("")
        assert "no measurements" in WorkloadView(rebuilt).render()


class TestPerformanceViewAgainstSpans:
    def test_rows_match_task_execution_spans(self, observed_run):
        _vdce, obs, run = observed_run
        rows = ApplicationPerformanceView(run).rows()
        spans = {s.name: s for s in obs.spans.by_category("task-execution")}
        assert set(spans) == {r["task"] for r in rows}
        for r in rows:
            span = spans[r["task"]]
            assert span.actor == r["host"]
            assert span.start_s == pytest.approx(r["start_s"])
            assert span.duration_s() == pytest.approx(r["elapsed_s"])

    def test_every_task_span_parents_to_the_application(self, observed_run):
        _vdce, obs, _run = observed_run
        (app,) = obs.spans.by_category("application")
        for span in obs.spans.by_category("task-execution"):
            assert span.parent_id == app.span_id

    def test_render_mentions_every_task(self, observed_run):
        _vdce, _obs, run = observed_run
        text = ApplicationPerformanceView(run).render()
        for nid in run.completions:
            assert nid in text


class TestComparativeViewFromRuns:
    def test_orders_by_makespan_and_renders(self, observed_run, loaded_run):
        _, _, layered = observed_run
        _, solver = loaded_run
        view = ComparativeView()
        view.add("layered-quiet", layered)
        view.add("solver-loaded", solver)
        rows = view.table()
        assert [r["makespan_s"] for r in rows] == \
            sorted(r["makespan_s"] for r in rows)
        assert view.best() == rows[0]["configuration"]
        text = view.render()
        assert "layered-quiet" in text and "solver-loaded" in text
