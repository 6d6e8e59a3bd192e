"""Chaos suite: the end-to-end pipeline under randomized-but-seeded faults.

Run separately from tier-1 in CI (``pytest tests/chaos``) with pinned
``CHAOS_SEEDS`` so any flake is reproducible by seed.  When
``CHAOS_TRACE_ARTIFACT`` points at a directory, the observed runs also
drop their Chrome ``trace_event`` exports there (CI uploads them as a
workflow artifact, one file per seed).
"""

import json
import os
from pathlib import Path

from repro.faults import FaultPlan

from tests.chaos.harness import assert_invariants, run_chaos


class TestChaosInvariants:
    def test_invariants_hold_under_seeded_faults(self, chaos_seed):
        outcome = run_chaos(chaos_seed)
        assert_invariants(outcome)
        # the plan generator must actually have produced faults to inject
        assert outcome.plan, f"empty fault plan for seed {chaos_seed}"

    def test_heavier_plans_still_terminate(self, chaos_seed):
        outcome = run_chaos(chaos_seed, n_host_crashes=3,
                            n_message_windows=3, n_partitions=2)
        assert_invariants(outcome)


class TestChaosDeterminism:
    def test_same_seed_byte_identical_fault_trace(self, chaos_seed):
        first = run_chaos(chaos_seed)
        second = run_chaos(chaos_seed)
        assert first.plan == second.plan
        assert first.fault_log == second.fault_log   # byte-identical JSON
        assert first.status == second.status
        assert first.makespan == second.makespan
        assert first.reschedules == second.reschedules

    def test_same_seed_byte_identical_chrome_trace(self, chaos_seed):
        first = run_chaos(chaos_seed, obs=True)
        second = run_chaos(chaos_seed, obs=True)
        assert first.chrome_trace is not None
        assert first.chrome_trace == second.chrome_trace  # byte-identical
        doc = json.loads(first.chrome_trace)
        assert doc["traceEvents"], "observed chaos run produced no events"
        assert any(ev.get("ph") == "X" for ev in doc["traceEvents"])
        artifact_dir = os.environ.get("CHAOS_TRACE_ARTIFACT")
        if artifact_dir:
            out = Path(artifact_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"chaos-trace-seed{chaos_seed}.json").write_text(
                first.chrome_trace)

    def test_unobserved_run_exports_nothing(self, chaos_seed):
        outcome = run_chaos(chaos_seed)
        assert outcome.chrome_trace is None
        assert outcome.trace is None

    def test_different_seeds_produce_different_plans(self):
        # plans differ already at generation time; no need to run the sim
        from repro.util.rng import RngRegistry
        from tests.chaos.harness import crash_candidates
        from repro.workloads import quiet_testbed

        seeds = [101, 202, 303]

        def plan_for(seed):
            v = quiet_testbed(seed=seed)
            return FaultPlan.random(
                RngRegistry(seed).stream("chaos-plan"),
                crash_candidates(v), sites=sorted(v.world.sites),
                horizon_s=60.0).to_dicts()

        docs = [plan_for(s) for s in seeds]
        assert docs[0] != docs[1] and docs[1] != docs[2]
