"""Chaos suite: committed SHA-256 digests lock the observable record.

Three fixed seeds drive three chaos scenarios with observability on:

* ``chaos`` — :func:`run_chaos` under its seeded random fault plan;
* ``failover`` — the mid-execution server crash with live standbys;
* ``partition`` — the membership-enabled run under seeded link flaps.

For each run the fault-injector log, the Chrome trace, the flat trace
log and (partition runs only) the membership ledger are hashed and
compared against the digests below.  Three more scenarios lock the
outputs the scheduling and monitoring layers feed:

* ``analyze`` — the canonical happens-before report of
  ``run_analysis(AnalyzeConfig(seeds=(seed,)))`` (chaos + bake-off
  scenarios under the sanitizer), seeds 101/202/303;
* ``bakeoff`` — the bake-off JSON of the ``site``, ``heft`` and
  ``optimal`` schedulers on ``forkjoin-small`` (the seed is the
  :class:`BakeoffConfig` seed), which pins every host-selection answer;
* ``bakeoff-all`` — the bake-off JSON of every registered scheduler on
  every default workload (seed 0; the bytes of ``BENCH_bakeoff.json``),
  which pins the baselines' and the site-scheduler variants'
  placements as well;
* ``monitor`` — the dynamic repository records and the replication WAL
  of the monitored NYNET testbed with failover on (the seed is the
  testbed seed), which pins the Group Manager → Site Manager relay;
* ``failover-lag`` — the dynamic repository records of the live server
  and of the surviving standby's roll-forward, and the promoted
  server's WAL digest, after a failover whose promoting standby missed
  27 shipments (:func:`tests.test_recovery.lagging_failover` at its
  defaults; the seed is the testbed seed), which pins the promotion's
  two-way state transfer and the LSN sequence it continues;
* ``reschedule`` — the flat trace log and the final allocation table
  (node, host, predicted time) of a 123-task layered DAG on the loaded
  eight-host NYNET testbed, with one host crash mid-run, seeds
  101/202/303.  The background loads trip the default
  :class:`ReschedulePolicy` hundreds of times per run, so every
  load-triggered and host-down reschedule decision is pinned.

Two more lock the trace-replay reports the traffic layer prints:

* ``replay`` — the JSON report of the capacity-model
  :func:`run_replay` with quotas, token buckets, bounded queues and
  skewed DRF weights all in play (3,000 arrivals, 6 tenants), seeds
  101/202/303;
* ``replay-bakeoff`` — the replay bake-off JSON at the
  :class:`ReplayBakeoffConfig` defaults (four schedulers, 200 arrivals,
  5 tenants; the seed is the config seed).

A kernel, network, scheduling or control-plane refactor that claims to
be behaviour-preserving must leave every digest unchanged; a change
that moves one is a behaviour change and has to say so when it
re-records the table.

The seeds are fixed here rather than taken from the ``CHAOS_SEEDS``
fixture: the digests only mean something for the seeds they were
recorded on.  ``python -m tests.chaos.test_digest_lock`` prints the
current table in the literal form used below.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.runner import AnalyzeConfig, report_json, run_analysis
from repro.bakeoff import (
    DEFAULT_WORKLOADS,
    BakeoffConfig,
    ReplayBakeoffConfig,
    run_bakeoff,
    run_replay_bakeoff,
)
from repro.faults import FaultPlan, HostCrash
from repro.obs import Observability
from repro.obs.export import trace_to_jsonl
from repro.scheduling import available_schedulers
from repro.traffic import ReplayConfig, run_replay
from repro.workloads import nynet_testbed, random_layered_graph
from tests.chaos.harness import ChaosOutcome, assert_invariants, run_chaos
from tests.chaos.test_partition import run_partition_chaos
from tests.chaos.test_server_failover import SERVER_CRASH_PLAN, STANDBYS
from tests.test_recovery import (
    dynamic_records,
    lagging_failover,
    rolled_forward,
)
from tests.test_update_coalescing import (
    dynamic_probe,
    run_monitored,
    wal_probe,
)

LOCK_SEEDS = (101, 202, 303)

#: every locked (scenario, seed) row, in table order
LOCK_ROWS = tuple(
    [(scenario, seed)
     for scenario in ("chaos", "failover", "partition", "analyze")
     for seed in LOCK_SEEDS]
    + [("bakeoff", 0), ("bakeoff-all", 0), ("monitor", 5),
       ("failover-lag", 5)]
    + [("reschedule", seed) for seed in LOCK_SEEDS]
    + [("replay", seed) for seed in LOCK_SEEDS]
    + [("replay-bakeoff", 7)])

#: the bake-off row's contestants: both HostSelector-driven schedulers
#: plus the branch-and-bound reference they are scored against
BAKEOFF_SCHEDULERS = ("site", "heft", "optimal")


def replay_config(seed: int) -> ReplayConfig:
    """The ``replay`` row: every admission limit bites at least once."""
    return ReplayConfig(arrivals=3000, users=300, tenants=6, seed=seed,
                        rate_limit_per_s=2.0, burst=4, quota_procs=48,
                        max_pending=40, weight_skew=1.5)


def _run(scenario: str, seed: int) -> ChaosOutcome:
    if scenario == "chaos":
        return run_chaos(seed, obs=True)
    if scenario == "failover":
        return run_chaos(seed, obs=True, failover_standbys=STANDBYS,
                         plan=SERVER_CRASH_PLAN)
    return run_partition_chaos(seed, obs=True)


def run_rescheduling(seed: int, max_sim_time_s: float = 2000.0
                     ) -> dict[str, str]:
    """The ``reschedule`` row: a loaded testbed that keeps moving tasks.

    Returns the flat trace log as JSONL and the final allocation table
    as JSON rows ``[node, host, predicted time]`` in node order.
    """
    obs = Observability()
    vdce = nynet_testbed(seed, hosts_per_site=8, obs=obs)
    vdce.start()
    vdce.warm_up(30.0)
    vdce.apply_fault_plan(FaultPlan((
        HostCrash("syracuse/h3", at=vdce.now + 4.0, recover_after=15.0),)))
    graph = random_layered_graph(vdce.registry, layers=12, width=10,
                                 seed=seed)
    process, run = vdce.submit(graph, "syracuse", k_remote_sites=1)
    deadline = vdce.now + max_sim_time_s
    while not process.triggered and vdce.now < deadline:
        vdce.env.run(until=vdce.now + 5.0)
    assert process.triggered and process.ok, f"seed {seed}: {run.status}"
    table = [[node_id, entry.host, entry.predicted_time_s]
             for node_id, entry in sorted(run.table.entries.items())]
    return {"trace": trace_to_jsonl(obs.trace),
            "allocation": json.dumps(table)}


def _artifacts(scenario: str, seed: int) -> dict[str, str]:
    """The exported text of each recorded artifact of one run."""
    if scenario == "analyze":
        report = run_analysis(AnalyzeConfig(seeds=(seed,)))
        return {"report": report_json(report)}
    if scenario == "bakeoff":
        config = BakeoffConfig(schedulers=BAKEOFF_SCHEDULERS,
                               workloads=("forkjoin-small",), seed=seed)
        return {"result": run_bakeoff(config).to_json()}
    if scenario == "bakeoff-all":
        config = BakeoffConfig(schedulers=tuple(available_schedulers()),
                               workloads=tuple(DEFAULT_WORKLOADS), seed=seed)
        return {"result": run_bakeoff(config).to_json()}
    if scenario == "monitor":
        vdce = run_monitored(failover=True)
        probes = {"dynamic": dynamic_probe(vdce), "wal": wal_probe(vdce)}
        return {"probes": json.dumps(probes, sort_keys=True)}
    if scenario == "failover-lag":
        vdce, _, _ = lagging_failover()
        live = vdce.site_managers["syracuse"]
        records = {"live": dynamic_records(live.repository)}
        state = vdce.recovery.sites["syracuse"]
        for replica in state.replicas:
            records[replica.address] = dynamic_records(
                rolled_forward(state, replica))
        return {"replicas": json.dumps(records, sort_keys=True),
                "wal": live.replication.wal.summary_json()}
    if scenario == "reschedule":
        return run_rescheduling(seed)
    if scenario == "replay":
        return {"report": run_replay(replay_config(seed)).to_json()}
    if scenario == "replay-bakeoff":
        config = ReplayBakeoffConfig(seed=seed)
        return {"result": run_replay_bakeoff(config).to_json()}
    outcome = _run(scenario, seed)
    assert_invariants(outcome)
    artifacts = {"fault_log": outcome.fault_log,
                 "chrome_trace": outcome.chrome_trace,
                 "trace": outcome.trace}
    if scenario == "partition":
        artifacts["ledger"] = outcome.ledger
    return artifacts


def record_digests(scenario: str, seed: int) -> dict[str, str]:
    """SHA-256 of each recorded artifact of one (scenario, seed) run."""
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in _artifacts(scenario, seed).items()}


#: (scenario, seed) -> artifact -> SHA-256 of its exported bytes
DIGESTS: dict[tuple[str, int], dict[str, str]] = {
    ('chaos', 101): {
        'fault_log':
            '8defcfc0a1122bb281698882aa4a44953a099a0b11bb0fa0107dffb3f4efe173',
        'chrome_trace':
            'a39a49ea61b1248309f1f827ec16c2fb0496cd77baadbad24ba5f414c6bdeb5b',
        'trace':
            '8199b0b62a1d8f54c96c7d3e6a7bd2e2fa9e24f6a29ca5882308f8a52cff3e20',
    },
    ('chaos', 202): {
        'fault_log':
            'c4f2eba2560e1de91a276bea3c163aeeef2725d0dd74a68200b2172d286de810',
        'chrome_trace':
            '806f3cf8a6f510456c552e600722acef5071d2c5dc48fcd7ee3326c1c2d6bb9f',
        'trace':
            '5b30d0e99100d657e110cddb67a504a8d9495c233c3bbae89f54e19f7523d771',
    },
    ('chaos', 303): {
        'fault_log':
            'b51589c8e8d54cf5b22112b4d161dc68e5e1e0de1c5701d98c3a486a0c4cb53b',
        'chrome_trace':
            '508039544245ee4e62568ad0f1957a1b3876817182fc2083763ff05269402c2d',
        'trace':
            '1f093333031f5785504cee5e4a583246e25b47af550a1f76e7984638046a69f2',
    },
    ('failover', 101): {
        'fault_log':
            '2cf5d36fa3af58f15c6a0154fedf0fb62e5424802979a8a74fc880ce5eda14e2',
        'chrome_trace':
            'f048749a2d8b81ce96b6815f41fc3a6d8c63a46dec64110936268d010f4216de',
        'trace':
            '28d985309935add0705df650e9e61bbbe583311bea84bbbf09e03c7f2f5a4d09',
    },
    ('failover', 202): {
        'fault_log':
            '2cf5d36fa3af58f15c6a0154fedf0fb62e5424802979a8a74fc880ce5eda14e2',
        'chrome_trace':
            '941ae5286bf40c36a5d658821ef02b31e0348dcc7a3708b18cb020483f0e81b0',
        'trace':
            'a0e0c1ed9ff364d66d1471ee790db919699a5cd22c066b53d1609daba97f1f6f',
    },
    ('failover', 303): {
        'fault_log':
            '2cf5d36fa3af58f15c6a0154fedf0fb62e5424802979a8a74fc880ce5eda14e2',
        'chrome_trace':
            'c7d725a9de54e64f8697657845abb3034fdd5a42427b156f5a271d073107aa53',
        'trace':
            '9ce0a324c7487fa7d0911e9f5876874051effccea627390019cd2c63f03a6080',
    },
    ('partition', 101): {
        'fault_log':
            '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
        'chrome_trace':
            'b386c42ad7429cbdc28f4dc6f66c82f150ff6df8843cc4d9cda8a55ae991ca50',
        'trace':
            'd763fa61565d06ee11dbf8364eeaf9dd9aa6f0b1d62b1384c8a07491ff84779d',
        'ledger':
            '249ee0f217cedeafac3c26563d8afdc78a895f26d6df34f15fe7a9719d1ae1cb',
    },
    ('partition', 202): {
        'fault_log':
            '5c5fd458864a9598f8d30b74e0c71e730da5c11a92d6bec80deb7121c196bf38',
        'chrome_trace':
            '981be88ebce7fe0d18eaa7db3364e42ed8d6035d8aca1f6df7b9c511db647277',
        'trace':
            '80fb260bbad174d03e9c8964d6efc428596837fccae097280f901b9e3b678e2d',
        'ledger':
            '0523b312abe4282e4ef6d4b1d4a2b4f53b208d455e1397397f1fc4ef779f142f',
    },
    ('partition', 303): {
        'fault_log':
            '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
        'chrome_trace':
            'd6f08056139ad7ebafbba5b40ff8f20835ff4b82fab017697cf188e5b065ebbd',
        'trace':
            'ecf7c8baaccf3d95480ae249203fe9616d16bffd4f6c7bec4ca4c9c685aad5fa',
        'ledger':
            '249ee0f217cedeafac3c26563d8afdc78a895f26d6df34f15fe7a9719d1ae1cb',
    },
    ('analyze', 101): {
        'report':
            'c9f64544a2c24a3dfb2f8b837ffd7404ec3a29e223a6b09eb62945938a2584ea',
    },
    ('analyze', 202): {
        'report':
            '03ffd893edf5ff69395097a01d225e3ee8dfcb802752084cb154710e9cfcbadf',
    },
    ('analyze', 303): {
        'report':
            'bc0329ee444cd04eec97ca2f9b6f6956190c471f4ec19d5441160c42fe2975b9',
    },
    ('bakeoff', 0): {
        'result':
            '9337416b835495836ca6b30ad2e2dbe3485b38a566248db9ef86cf3d61594421',
    },
    ('bakeoff-all', 0): {
        'result':
            'f45cd41ec99f063f59fe8f64ddc4b85e8b845b12442fc8eb052cc3bb7f611c5e',
    },
    ('monitor', 5): {
        'probes':
            '797186ef7ee8df2d4d042a6b0d8cfdfdac2a0a3ed8f9aca92d5a6014892e3faa',
    },
    ('failover-lag', 5): {
        'replicas':
            'c664dfb4147229e6760143ec79090ad5aaa9ee1a92b968941164cd4dddf34ffd',
        'wal':
            'bb12031ba7362cf2093a131c5ea5e095258dac452ef5324cb15dab5cc8785651',
    },
    ('reschedule', 101): {
        'trace':
            'b7085bf5680b9aaac080299b6fab17746229d9d7a74e46a8aa1ca7160e418178',
        'allocation':
            'b47b7d5b44f33caf0c2c64ce5d36c41e919bc548d5fc76be89d17f67b6851db6',
    },
    ('reschedule', 202): {
        'trace':
            '45a546cf3edf5b863f36d69b385dcd144a65708925ade94abd53958dcd6c5c6c',
        'allocation':
            '9e0a5b55d51023f9f5fd00bb7a3a4c96faf34a90f3a38bed21b9423eff7cce9c',
    },
    ('reschedule', 303): {
        'trace':
            'eaf80990e8776c2414284ee9c9c90cd6134c58a46331987c187a26f6753524bd',
        'allocation':
            '665cbe7d828f155b31a77ff85bea98657a77a313903fe9c8bdc99cf42d0a51ad',
    },
    ('replay', 101): {
        'report':
            '91c099032bff9eaad988f279105deb3cab241fce7545a4e79ecd0a099cc07de8',
    },
    ('replay', 202): {
        'report':
            '5a12f62687c90177af4c3d8340905dff95e479d072e21deff7eec64d3793509e',
    },
    ('replay', 303): {
        'report':
            '7f5ad4126a5316b38815c4623f1a1a748c25e114593202b02c7b751407354171',
    },
    ('replay-bakeoff', 7): {
        'result':
            '582874f56f94f9b53ab66181d91c16d4e539f542fe95dc6694f67e7a2c1658ca',
    },
}


class TestDigestLock:
    @pytest.mark.parametrize("scenario,seed", sorted(DIGESTS), ids=str)
    def test_artifacts_match_committed_digests(self, scenario, seed):
        assert record_digests(scenario, seed) == DIGESTS[(scenario, seed)], \
            f"{scenario} seed {seed}: observable record changed"


def main() -> None:
    """Print the digest table for :data:`LOCK_ROWS` as a dict literal."""
    for scenario, seed in LOCK_ROWS:
        print(f"    ({scenario!r}, {seed}): {{")
        for name, digest in record_digests(scenario, seed).items():
            print(f"        {name!r}:")
            print(f"            {digest!r},")
        print("    },")


if __name__ == "__main__":
    main()
