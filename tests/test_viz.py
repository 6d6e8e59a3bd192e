"""Tests for the three visualization services."""

import pytest

from repro.obs import Observability
from repro.viz import ApplicationPerformanceView, ComparativeView, WorkloadView
from repro.workloads import linear_solver_graph, quiet_testbed


@pytest.fixture(scope="module")
def completed():
    v = quiet_testbed(seed=4, obs=Observability())
    v.start()
    g = linear_solver_graph(v.registry, n=40)
    run = v.run_application(g, "syracuse", max_sim_time_s=600)
    assert run.status == "completed"
    return v, run


class TestApplicationPerformanceView:
    def test_rows_cover_all_tasks(self, completed):
        _, run = completed
        view = ApplicationPerformanceView(run)
        assert {r["task"] for r in view.rows()} == set(run.graph.nodes)

    def test_rows_sorted_by_start(self, completed):
        _, run = completed
        starts = [r["start_s"] for r in ApplicationPerformanceView(run).rows()]
        assert starts == sorted(starts)

    def test_render_contains_tasks_and_makespan(self, completed):
        _, run = completed
        text = ApplicationPerformanceView(run).render()
        assert "lu" in text
        assert f"{run.makespan:.3f}" in text
        assert "█" in text

    def test_render_empty_run(self, completed):
        v, run = completed
        from repro.core.run import ApplicationRun
        empty = ApplicationRun(execution_id="x", graph=run.graph,
                               table=run.table, report=run.report)
        assert "no completed tasks" in ApplicationPerformanceView(empty).render()


class TestWorkloadView:
    def test_series_from_trace(self, completed):
        v, _ = completed
        view = WorkloadView(v.tracer)
        series = view.series()
        assert series  # at least the initial reports
        for pts in series.values():
            times = [t for t, _ in pts]
            assert times == sorted(times)

    def test_latest_and_render(self, completed):
        v, _ = completed
        view = WorkloadView(v.tracer)
        latest = view.latest()
        assert all(load >= 0 for load in latest.values())
        text = view.render()
        assert "Workload" in text

    def test_empty_tracer(self):
        from repro.simcore import Tracer
        assert "no measurements" in WorkloadView(Tracer()).render()


class TestComparativeView:
    def test_best_picks_minimum_makespan(self, completed):
        v, run = completed
        cv = ComparativeView()
        cv.add("config-a", run)
        # a fake slower run: same object twice with different label but
        # mutated copy
        import copy
        slower = copy.copy(run)
        slower.finished_at = run.finished_at + 100
        cv.add("config-b", slower)
        assert cv.best() == "config-a"
        rows = cv.table()
        assert rows[0]["configuration"] == "config-a"

    def test_render(self, completed):
        _, run = completed
        cv = ComparativeView()
        cv.add("only", run)
        assert "only" in cv.render()

    def test_best_empty_raises(self):
        with pytest.raises(ValueError):
            ComparativeView().best()

    def test_render_empty(self):
        assert "no runs" in ComparativeView().render()


class TestWorkloadHeatmap:
    def test_heatmap_rows_per_host(self):
        from repro.workloads import nynet_testbed
        v = nynet_testbed(seed=8, hosts_per_site=2, with_loads=True,
                          filter_policy="always", obs=Observability())
        v.start()
        v.run(until=60)
        view = WorkloadView(v.tracer)
        text = view.heatmap(bins=20)
        assert "Workload heatmap" in text
        for host in v.world.all_hosts():
            assert host.address in text

    def test_heatmap_empty(self):
        from repro.simcore import Tracer
        assert "no measurements" in WorkloadView(Tracer()).heatmap()

    def test_heatmap_shade_scales_with_load(self):
        from repro.workloads import nynet_testbed
        v = nynet_testbed(seed=9, hosts_per_site=2, with_loads=False,
                          filter_policy="always", obs=Observability())
        v.start()
        v.world.host("syracuse/h0").true_load = 3.9  # near max_load
        v.world.host("syracuse/h1").true_load = 0.05
        v.run(until=30)
        text = WorkloadView(v.tracer).heatmap(bins=10, max_load=4.0)
        hot = next(l for l in text.splitlines() if "syracuse/h0" in l)
        cold = next(l for l in text.splitlines() if "syracuse/h1" in l)
        assert "@" in hot or "%" in hot
        assert "@" not in cold and "%" not in cold
