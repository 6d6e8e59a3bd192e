"""Concurrent multi-application execution.

Paper section 2.2.1: "a site can be a local site for some of the
applications and it can be a remote site for some of the others running
in the VDCE system."  These tests submit several applications at once —
from different local sites — and check isolation (per-execution channels,
correct results for each) and contention effects (co-running applications
slow each other down through genuine host sharing).
"""

from repro.workloads import (
    c3i_scenario_graph,
    fourier_pipeline_graph,
    linear_solver_graph,
    quiet_testbed,
)


def drive(vdce, processes, max_time=3600.0, step=5.0):
    deadline = vdce.now + max_time
    while not all(p.triggered for p in processes) and vdce.now < deadline:
        vdce.env.run(until=min(vdce.now + step, deadline))
    for p in processes:
        assert p.triggered, "application did not finish in time"


class TestConcurrentApplications:
    def test_three_apps_two_local_sites(self):
        v = quiet_testbed(seed=31)
        v.start()
        solver = linear_solver_graph(v.registry, n=60)
        fourier = fourier_pipeline_graph(v.registry, n=1000, stages=2)
        c3i = c3i_scenario_graph(v.registry, targets=12, steps=8)
        p1, r1 = v.submit(solver, "syracuse", k_remote_sites=1)
        p2, r2 = v.submit(fourier, "rome", k_remote_sites=1)
        p3, r3 = v.submit(c3i, "syracuse", k_remote_sites=1)
        drive(v, [p1, p2, p3])
        assert r1.status == r2.status == r3.status == "completed"
        # each application's numerics are intact despite interleaving
        assert r1.results()["verify"]["norm"] < 1e-8
        assert len(r2.results()["peaks"]["peaks"]) == 2
        assert r3.results()["plan"]["plan"].shape[1] == 3

    def test_execution_ids_unique_and_isolated(self):
        v = quiet_testbed(seed=32)
        v.start()
        g1 = fourier_pipeline_graph(v.registry, n=512, stages=1)
        g2 = fourier_pipeline_graph(v.registry, n=512, stages=1)
        p1, r1 = v.submit(g1, "syracuse")
        p2, r2 = v.submit(g2, "syracuse")
        drive(v, [p1, p2])
        assert r1.execution_id != r2.execution_id
        assert len(r1.completions) == len(g1)
        assert len(r2.completions) == len(g2)

    def test_same_site_local_and_remote_roles(self):
        """Rome serves as remote scheduler for a syracuse app while being
        the local site of its own app, simultaneously."""
        v = quiet_testbed(seed=33)
        v.start()
        a = linear_solver_graph(v.registry, n=50)
        b = c3i_scenario_graph(v.registry, targets=10, steps=6)
        pa, ra = v.submit(a, "syracuse", k_remote_sites=1)
        pb, rb = v.submit(b, "rome", k_remote_sites=1)
        drive(v, [pa, pb])
        assert ra.report.local_site == "syracuse"
        assert rb.report.local_site == "rome"
        assert "rome" in ra.report.consulted_sites
        assert "syracuse" in rb.report.consulted_sites

    def test_contention_slows_corunners(self):
        """Two identical apps sharing hosts take longer than one alone
        (genuine time-sharing, not accounting fiction)."""
        def solo():
            v = quiet_testbed(seed=34)
            v.start()
            g = linear_solver_graph(v.registry, n=120)
            run = v.run_application(g, "syracuse", k_remote_sites=0,
                                    max_sim_time_s=3600)
            return run.execution_time

        def duo():
            v = quiet_testbed(seed=34)
            v.start()
            g1 = linear_solver_graph(v.registry, n=120)
            g2 = linear_solver_graph(v.registry, n=120)
            p1, r1 = v.submit(g1, "syracuse", k_remote_sites=0)
            p2, r2 = v.submit(g2, "syracuse", k_remote_sites=0)
            drive(v, [p1, p2])
            return max(r1.execution_time, r2.execution_time)

        assert duo() > solo() * 1.15

    def test_sequential_apps_learn_weights(self):
        """Completed executions refine the task-performance database
        (EWMA weight updates), so repeat submissions stay consistent."""
        v = quiet_testbed(seed=35)
        v.start()
        tp = v.repositories["syracuse"].task_performance
        g = linear_solver_graph(v.registry, n=60)
        run1 = v.run_application(g, "syracuse", max_sim_time_s=3600)
        hist_after_1 = len(tp.history("lu-decomposition"))
        g2 = linear_solver_graph(v.registry, n=60)
        run2 = v.run_application(g2, "syracuse", max_sim_time_s=3600)
        hist_after_2 = len(tp.history("lu-decomposition"))
        assert run1.status == run2.status == "completed"
        assert hist_after_2 >= hist_after_1
        # weights remain sane (positive, near the calibrated truth)
        lu_host = run2.table.get("lu").host
        if lu_host.startswith("syracuse/"):
            w = tp.weight("lu-decomposition", lu_host, default=None)
            assert 0.1 < w < 10.0
