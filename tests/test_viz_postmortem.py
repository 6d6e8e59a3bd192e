"""Tests for post-mortem run archives."""

import pytest

from repro.faults import FaultPlan, LinkDown
from repro.obs import Observability
from repro.util.errors import RuntimeSystemError
from repro.viz import RunArchive, WorkloadView, archive_run
from repro.workloads import linear_solver_graph, quiet_testbed


@pytest.fixture(scope="module")
def completed():
    v = quiet_testbed(seed=81, obs=Observability())
    v.start()
    g = linear_solver_graph(v.registry, n=50)
    run = v.run_application(g, "syracuse", max_sim_time_s=600)
    assert run.status == "completed"
    return v, run


class TestArchiveConstruction:
    def test_from_run_fields(self, completed):
        v, run = completed
        arc = RunArchive.from_run(run, tracer=v.tracer)
        assert arc.application == "linear-equation-solver"
        assert arc.status == "completed"
        assert arc.makespan == pytest.approx(run.makespan)
        assert set(arc.allocation) == set(run.graph.nodes)
        assert len(arc.tasks) == len(run.graph)
        assert any(r["category"] == "task-finish" for r in arc.trace)

    def test_unscheduled_run_rejected(self, completed):
        from repro.core.run import ApplicationRun
        _, run = completed
        empty = ApplicationRun(execution_id="x", graph=run.graph,
                               table=None, report=None)  # type: ignore
        with pytest.raises(RuntimeSystemError):
            RunArchive.from_run(empty)

    def test_trace_filtered_to_categories(self, completed):
        v, run = completed
        arc = RunArchive.from_run(run, tracer=v.tracer,
                                  categories=("task-finish",))
        assert arc.trace
        assert all(r["category"] == "task-finish" for r in arc.trace)


class TestFaultRows:
    def test_mid_run_link_down_archived(self):
        v = quiet_testbed(seed=81, obs=Observability())
        v.start()
        v.enable_membership()
        g = linear_solver_graph(v.registry, n=150)
        sites = sorted(v.world.sites)
        for i, nid in enumerate(g.nodes):
            g.node(nid).properties.preferred_site = sites[i % len(sites)]
        v.apply_fault_plan(FaultPlan((
            LinkDown("rome", "syracuse", at=2.0, restore_after=20.0),)))
        run = v.run_application(g, "syracuse", k_remote_sites=1,
                                max_sim_time_s=600)
        assert run.status == "completed"
        assert run.started_at < 2.0 < run.finished_at
        v.run(until=30.0)  # past the restore
        arc = RunArchive.from_run(run, tracer=v.tracer)
        rows = {}
        for row in arc.trace:
            rows.setdefault(row["category"], []).append(row)
        assert [(r["time"], r["detail"]) for r in rows["fault:link-down"]] \
            == [(2.0, {"link": "rome~syracuse"})]
        assert [(r["time"], r["detail"]) for r in rows["fault:link-up"]] \
            == [(22.0, {"link": "rome~syracuse"})]
        drops = rows.get("net:partition-drop", [])
        assert drops and all(2.0 <= r["time"] < 22.0 for r in drops)


class TestPersistence:
    def test_save_load_roundtrip(self, completed, tmp_path):
        v, run = completed
        path = tmp_path / "run.json"
        arc = archive_run(run, path, tracer=v.tracer)
        loaded = RunArchive.load(path)
        assert loaded.execution_id == arc.execution_id
        assert loaded.tasks == arc.tasks
        assert loaded.makespan == pytest.approx(arc.makespan)

    def test_load_garbage(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{]")
        with pytest.raises(RuntimeSystemError):
            RunArchive.load(p)

    def test_load_wrong_shape(self, tmp_path):
        p = tmp_path / "wrong.json"
        p.write_text('{"unexpected": 1}')
        with pytest.raises(RuntimeSystemError):
            RunArchive.load(p)


class TestDerivedViews:
    def test_host_utilization_bounds(self, completed):
        v, run = completed
        arc = RunArchive.from_run(run, tracer=v.tracer)
        util = arc.host_utilization()
        assert util
        assert all(0.0 <= u <= 1.0 for u in util.values())
        # the hosts in the utilization map executed the tasks
        assert set(util) <= set(run.table.hosts())

    def test_render_contains_tasks_and_utilization(self, completed):
        v, run = completed
        arc = RunArchive.from_run(run, tracer=v.tracer)
        text = arc.render()
        assert "Post-mortem" in text
        assert "lu" in text
        assert "utilization" in text

    def test_rehydrated_tracer_feeds_live_views(self, completed, tmp_path):
        """The archived trace slice works with WorkloadView post-mortem."""
        v, run = completed
        path = tmp_path / "run.json"
        archive_run(run, path, tracer=v.tracer)
        loaded = RunArchive.load(path)
        view = WorkloadView(loaded.tracer())
        # quiet testbed: loads are flat zero but series must exist
        assert view.series() is not None
