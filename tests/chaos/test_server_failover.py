"""Chaos suite: site-server failover under ServerCrash plans.

The contract under test is the self-healing control plane's acceptance
criterion: a server crash mid-execution with a live standby must leave
every application *completed exactly once* (application-level completion
AND task-level execution counts), and two same-seed runs must produce
byte-identical fault-injector logs and Chrome traces — the failover
machinery (WAL shipping, heartbeat detection, rank-staggered promotion,
re-push reconciliation) must be deterministic end to end.

CI runs this module as the ``chaos-failover`` job with pinned
``CHAOS_SEEDS``; ``CHAOS_TRACE_ARTIFACT`` collects the injector logs
and failover Chrome traces as workflow artifacts.
"""

import json
import os
from pathlib import Path

from repro.faults import FaultPlan, HostCrash, ServerCrash

from tests.chaos.harness import assert_invariants, run_chaos

STANDBYS = {"syracuse": ["h1", "h2"], "rome": ["h1", "h2"]}

#: mid-execution crash of the submitting site's server: scheduling and
#: distribution are done (~1 s in), tasks are in flight for minutes
SERVER_CRASH_PLAN = FaultPlan(events=(
    ServerCrash(site="syracuse", at=12.0),
))

#: the promoted standby's machine dies too: second-rank standby takes over
DOUBLE_FAILOVER_PLAN = FaultPlan(events=(
    ServerCrash(site="syracuse", at=10.0, recover_after=40.0),
    HostCrash(host="syracuse/h1", at=45.0),
))

#: first-rank standby is already dead when the server fails: the dead
#: standby must never promote, the next rank takes over after its grace
DEAD_STANDBY_PLAN = FaultPlan(events=(
    HostCrash(host="syracuse/h1", at=5.0),
    ServerCrash(site="syracuse", at=10.0),
))


def artifact_dir() -> Path | None:
    raw = os.environ.get("CHAOS_TRACE_ARTIFACT")
    if not raw:
        return None
    out = Path(raw)
    out.mkdir(parents=True, exist_ok=True)
    return out


class TestFailoverExactlyOnce:
    def test_server_crash_completes_exactly_once(self, chaos_seed):
        outcome = run_chaos(chaos_seed, failover_standbys=STANDBYS,
                            plan=SERVER_CRASH_PLAN)
        assert_invariants(outcome)
        assert outcome.status == "completed", \
            f"failover did not heal the run (seed {chaos_seed})"
        assert outcome.failovers == 1
        assert outcome.completions == outcome.total_tasks
        # exactly once at the *task* level: the re-pushed allocations
        # must be deduplicated, not re-executed
        assert outcome.tasks_executed == outcome.total_tasks, \
            (f"duplicate task execution: {outcome.tasks_executed} runs "
             f"for {outcome.total_tasks} tasks (seed {chaos_seed})")
        assert outcome.verify_norm is not None
        assert outcome.verify_norm < 1e-8

    def test_double_failover_still_exactly_once(self, chaos_seed):
        # drive the sim past the second crash: the role must re-promote
        # even after the application finished
        outcome = run_chaos(chaos_seed, failover_standbys=STANDBYS,
                            plan=DOUBLE_FAILOVER_PLAN, min_sim_time_s=80.0)
        assert_invariants(outcome)
        assert outcome.status == "completed"
        assert outcome.failovers == 2
        assert outcome.tasks_executed == outcome.total_tasks
        # the original server recovered at t=50 but must NOT have
        # reclaimed the role (no split-brain): both promotions stand
        assert outcome.fault_counts.get("server-up") == 1

    def test_dead_first_rank_standby_never_promotes(self, chaos_seed):
        outcome = run_chaos(chaos_seed, failover_standbys=STANDBYS,
                            plan=DEAD_STANDBY_PLAN)
        assert_invariants(outcome)
        assert outcome.status == "completed"
        # exactly one promotion — by the surviving second-rank standby
        assert outcome.failovers == 1
        assert outcome.tasks_executed == outcome.total_tasks

    def test_random_server_plans_hold_invariants(self, chaos_seed):
        # randomized plans with server crashes may also crash standbys;
        # the run must still reach a terminal, attributable state
        outcome = run_chaos(chaos_seed, failover_standbys=STANDBYS,
                            n_server_crashes=2)
        assert_invariants(outcome)


class TestFailoverUnderMembership:
    def test_server_crash_with_membership_is_deterministic(self, chaos_seed):
        # the promoted manager inherits the membership site filter; the
        # run must still complete and replay byte for byte.  Task-level
        # exactly-once is not asserted: a peer that quarantines the
        # crashed server's site re-queues tasks still running on that
        # site's live hosts.
        first = run_chaos(chaos_seed, membership=True,
                          failover_standbys=STANDBYS,
                          plan=SERVER_CRASH_PLAN)
        second = run_chaos(chaos_seed, membership=True,
                           failover_standbys=STANDBYS,
                           plan=SERVER_CRASH_PLAN)
        assert_invariants(first)
        assert first.status == "completed", \
            f"failover under membership did not heal (seed {chaos_seed})"
        assert first.failovers == 1
        assert first.ledger is not None
        assert first.fault_log == second.fault_log
        assert first.ledger == second.ledger


class TestUnsourceableRepush:
    def test_promotion_repush_never_kills_daemons(self):
        """Seed-13 regression, found by the happens-before triage sweep.

        rome/h1 crashes; its tasks reschedule (with forwarded inputs) to
        rome/h2; then rome's server crashes and h2 promotes.  The
        facade's promotion healing re-pushes every incomplete task at
        its current table assignment as an ``immediate`` push *without*
        inputs — and rome/h2 never opened those tasks' input endpoints,
        so the re-pushed task used to die on
        ``ChannelError("no open channel ...")``, taking its ``ac-exec``
        parent with it.  The Application Controller must refuse to run
        an immediate entry whose inputs cannot be sourced locally.
        """
        outcome = run_chaos(13, failover_standbys=STANDBYS,
                            n_server_crashes=1)
        assert_invariants(outcome)
        assert outcome.status == "completed"
        assert outcome.failovers >= 1
        assert outcome.completions == outcome.total_tasks
        assert outcome.failed_processes == []


class TestFailoverDeterminism:
    def test_same_seed_byte_identical_injector_log(self, chaos_seed):
        first = run_chaos(chaos_seed, failover_standbys=STANDBYS,
                          plan=SERVER_CRASH_PLAN)
        second = run_chaos(chaos_seed, failover_standbys=STANDBYS,
                           plan=SERVER_CRASH_PLAN)
        assert first.fault_log == second.fault_log
        assert first.status == second.status
        assert first.makespan == second.makespan
        assert first.failovers == second.failovers
        assert first.tasks_executed == second.tasks_executed
        out = artifact_dir()
        if out:
            (out / f"failover-injector-log-seed{chaos_seed}.json"
             ).write_text(first.fault_log)

    def test_same_seed_byte_identical_chrome_trace(self, chaos_seed):
        first = run_chaos(chaos_seed, obs=True,
                          failover_standbys=STANDBYS,
                          plan=SERVER_CRASH_PLAN)
        second = run_chaos(chaos_seed, obs=True,
                           failover_standbys=STANDBYS,
                           plan=SERVER_CRASH_PLAN)
        assert first.chrome_trace is not None
        assert first.chrome_trace == second.chrome_trace
        doc = json.loads(first.chrome_trace)
        # the promotion itself must be visible as a failover span
        assert any(ev.get("cat") == "failover"
                   for ev in doc["traceEvents"]), \
            "no failover span in the Chrome trace"
        out = artifact_dir()
        if out:
            (out / f"failover-trace-seed{chaos_seed}.json").write_text(
                first.chrome_trace)
